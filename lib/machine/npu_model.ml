type unit_kind = Cube | Vector

type config = {
  cube_flops_per_cycle : float;
  vector_flops_per_cycle : float;
  freq_mhz : float;
  ddr_gbps : float;
  launch_us : float;
  unified_buffer_kb : int;
}

let ascend910 =
  { cube_flops_per_cycle = 4096.0;
    vector_flops_per_cycle = 128.0;
    freq_mhz = 1000.0;
    ddr_gbps = 60.0;
    launch_us = 20.0;
    unified_buffer_kb = 256
  }

let cluster_time cfg (p : Prog.t) ~kind_of (c : Footprints.cluster) =
  let spilled =
    c.Footprints.staged_arrays <> []
    && Footprints.staged_bytes p c > cfg.unified_buffer_kb * 1024
  in
  let c_eff = if spilled then { c with Footprints.staged_arrays = [] } else c in
  let traffic = Footprints.cluster_traffic p c_eff in
  let bytes = traffic.Footprints.read_bytes + traffic.Footprints.write_bytes in
  let transfer_us = float_of_int bytes /. (cfg.ddr_gbps *. 1e3) in
  let compute_cycles =
    List.fold_left
      (fun acc (s, n) ->
        let ops = float_of_int (n * (Prog.find_stmt p s).Prog.ops) in
        let throughput =
          match kind_of s with
          | Cube -> cfg.cube_flops_per_cycle
          | Vector -> cfg.vector_flops_per_cycle
        in
        acc +. (ops /. throughput))
      0.0 (Footprints.stmt_instances c)
  in
  let compute_us = compute_cycles /. cfg.freq_mhz in
  (* DMA and compute overlap imperfectly on the chip; charge the max plus
     a fraction of the min, and a launch cost per operator group. *)
  Float.max compute_us transfer_us
  +. (0.2 *. Float.min compute_us transfer_us)
  +. cfg.launch_us

let time_ms cfg p ~kind_of clusters =
  List.fold_right (fun c acc -> cluster_time cfg p ~kind_of c +. acc) clusters 0.0
  /. 1000.0
