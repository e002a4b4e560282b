type config = {
  sms : int;
  flops_per_sm_per_cycle : float;
  freq_mhz : float;
  mem_gbps : float;
  launch_us : float;
  shared_kb : int;
}

let quadro_p6000 =
  { sms = 30;
    flops_per_sm_per_cycle = 128.0;
    freq_mhz = 1500.0;
    mem_gbps = 432.0;
    (* the real launch overhead (~8us) scaled by the benchmark-size
       reduction factor, preserving the launch/work balance of the
       paper's full-size images *)
    launch_us = 0.05;
    shared_kb = 48
  }

type kernel_time = {
  kt_compute_us : float;
  kt_memory_us : float;
  kt_launch_us : float;
  kt_spilled : bool;
}

let kernel_time cfg (p : Prog.t) (c : Footprints.cluster) =
  let spilled =
    c.Footprints.staged_arrays <> []
    && Footprints.staged_bytes p c > cfg.shared_kb * 1024
  in
  let c_eff =
    if spilled then { c with Footprints.staged_arrays = [] } else c
  in
  let traffic = Footprints.cluster_traffic p c_eff in
  let blocks =
    if c.Footprints.parallel_tiles then max 1 c.Footprints.tile_count else 1
  in
  (* serialized clusters (no parallel tile loop) occupy a single SM *)
  let sms_used = float_of_int (min cfg.sms blocks) in
  let ops =
    List.fold_left
      (fun acc (s, n) -> acc + (n * (Prog.find_stmt p s).Prog.ops))
      0 (Footprints.stmt_instances c)
  in
  let compute_cycles =
    float_of_int ops /. (cfg.flops_per_sm_per_cycle *. sms_used)
  in
  let kt_compute_us = compute_cycles /. cfg.freq_mhz in
  let bytes = traffic.Footprints.read_bytes + traffic.Footprints.write_bytes in
  let kt_memory_us = float_of_int bytes /. (cfg.mem_gbps *. 1e3) in
  { kt_compute_us; kt_memory_us; kt_launch_us = cfg.launch_us; kt_spilled = spilled }

let kernel_times cfg p clusters = List.map (kernel_time cfg p) clusters

let time_ms cfg p clusters =
  let ks = kernel_times cfg p clusters in
  List.fold_left
    (fun acc k ->
      acc +. Float.max k.kt_compute_us k.kt_memory_us +. k.kt_launch_us)
    0.0 ks
  /. 1000.0
