type config = {
  cores : int;
  cpi : float;
  vector_width : int;
  freq_ghz : float;
  fork_join_cycles : float;
  dram_parallelism : int;
}

let xeon_e5_2683 =
  { cores = 32;
    cpi = 1.0;
    vector_width = 8;
    freq_ghz = 2.1;
    fork_join_cycles = 20000.0;
    dram_parallelism = 6
  }

type kernel_profile = {
  kp_id : int;
  kp_ops : int;
  kp_mem_cycles : int;  (** on-chip cache hit cycles *)
  kp_dram_cycles : int;  (** DRAM access cycles (bandwidth-limited) *)
  kp_par_iters : int;
  kp_vectorizable : bool;
}

type report = {
  kernels : kernel_profile list;
  cache : Cache.level_stats list;
  dram : int;
  instances : int;
  total_ops : int;
}

let deterministic_fill ?(seed = 42) (p : Prog.t) mem =
  List.iter
    (fun (a : Prog.array_decl) ->
      let h = Hashtbl.hash (a.Prog.array_name, seed) in
      let counter = ref h in
      Interp.fill mem a.Prog.array_name (fun _ ->
          counter := (!counter * 1103515245) + 12345;
          let v = (!counter lsr 16) land 0xFF in
          float_of_int v /. 32.0))
    p.Prog.arrays

(* Trip count of the outermost loop of a kernel if it is coincident
   (OpenMP parallelizes only the outermost loop; a kernel whose outer
   loop carries dependences runs sequentially, which is exactly how
   maxfuse loses parallelism in the paper). *)
let rec par_iters params = function
  | Ast.For { lb; ub; coincident; _ } ->
      if coincident then begin
        try
          let lo = Ast.eval_expr ~params ~env:[] lb in
          let hi = Ast.eval_expr ~params ~env:[] ub in
          max 1 (hi - lo + 1)
        with Invalid_argument _ -> max_int
      end
      else 1
  | Ast.If (_, body) -> par_iters params body
  | Ast.Block ts ->
      List.fold_left (fun acc t -> max acc (par_iters params t)) 1 ts
  | Ast.Kernel (_, t) | Ast.Point t -> par_iters params t
  | Ast.Call _ | Ast.Nop -> 1

let rec vectorizable = function
  | Ast.For { coincident; body; _ } ->
      let has_inner_for =
        let rec contains_for = function
          | Ast.For _ -> true
          | Ast.If (_, b) -> contains_for b
          | Ast.Block ts -> List.exists contains_for ts
          | Ast.Kernel (_, t) | Ast.Point t -> contains_for t
          | Ast.Call _ | Ast.Nop -> false
        in
        contains_for body
      in
      if has_inner_for then vectorizable body else coincident
  | Ast.If (_, body) -> vectorizable body
  | Ast.Block ts -> List.exists vectorizable ts
  | Ast.Kernel (_, t) | Ast.Point t -> vectorizable t
  | Ast.Call _ | Ast.Nop -> false

let profile ?seed (p : Prog.t) ast =
  let mem = Interp.alloc p in
  deterministic_fill ?seed p mem;
  let cache = Cache.scaled_xeon () in
  let per_kernel_mem : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let per_kernel_dram : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let dram_latency = 200 in
  (* the current kernel's cycles, added to the tables when it changes *)
  let cur = ref (-1) and mem_cycles = ref 0 and dram_cycles = ref 0 in
  let flush () =
    let add tbl n =
      if n > 0 then
        Hashtbl.replace tbl !cur
          (n + Option.value ~default:0 (Hashtbl.find_opt tbl !cur))
    in
    add per_kernel_mem !mem_cycles;
    add per_kernel_dram !dram_cycles;
    mem_cycles := 0;
    dram_cycles := 0
  in
  let hook ~kernel ~stmt:_ ~inst:_ ~array:_ ~cell:_ ~addr ~write =
    if kernel <> !cur then begin
      flush ();
      cur := kernel
    end;
    let lat = Cache.access cache ~addr ~write in
    if lat >= dram_latency then begin
      mem_cycles := !mem_cycles + lat - dram_latency;
      dram_cycles := !dram_cycles + dram_latency
    end
    else mem_cycles := !mem_cycles + lat
  in
  let stats = Interp.run ~hook p ast mem in
  flush ();
  Cache.publish cache;
  let kernel_regions = Ast.kernels ast in
  let kernels =
    List.map
      (fun (id, region) ->
        { kp_id = id;
          kp_ops = Option.value ~default:0 (Hashtbl.find_opt stats.Interp.per_kernel_ops id);
          kp_mem_cycles = Option.value ~default:0 (Hashtbl.find_opt per_kernel_mem id);
          kp_dram_cycles = Option.value ~default:0 (Hashtbl.find_opt per_kernel_dram id);
          kp_par_iters = par_iters p.Prog.params region;
          kp_vectorizable = vectorizable region
        })
      kernel_regions
  in
  (* code outside kernel regions runs sequentially *)
  let outside_ops =
    Option.value ~default:0 (Hashtbl.find_opt stats.Interp.per_kernel_ops (-1))
  in
  let outside_mem =
    Option.value ~default:0 (Hashtbl.find_opt per_kernel_mem (-1))
  in
  let kernels =
    if outside_ops > 0 || outside_mem > 0 then
      { kp_id = -1;
        kp_ops = outside_ops;
        kp_mem_cycles = outside_mem;
        kp_dram_cycles = Option.value ~default:0 (Hashtbl.find_opt per_kernel_dram (-1));
        kp_par_iters = 1;
        kp_vectorizable = false
      }
      :: kernels
    else kernels
  in
  { kernels;
    cache = Cache.stats cache;
    dram = Cache.dram_accesses cache;
    instances = stats.Interp.instances;
    total_ops = stats.Interp.ops
  }

let time_ms ?vectorize cfg report ~threads =
  let total_cycles =
    List.fold_left
      (fun acc k ->
        let vec =
          match vectorize with Some v -> v | None -> k.kp_vectorizable
        in
        let compute =
          let c = float_of_int k.kp_ops *. cfg.cpi in
          if vec then c /. float_of_int cfg.vector_width else c
        in
        let par = max 1 (min threads k.kp_par_iters) in
        (* DRAM traffic scales only up to the memory-level parallelism of
           the socket, not with the thread count *)
        let mem_par = max 1 (min par cfg.dram_parallelism) in
        let scaled =
          ((compute +. float_of_int k.kp_mem_cycles) /. float_of_int par)
          +. (float_of_int k.kp_dram_cycles /. float_of_int mem_par)
        in
        let fork = if threads > 1 && k.kp_par_iters > 1 then cfg.fork_join_cycles else 0.0 in
        acc +. scaled +. fork)
      0.0 report.kernels
  in
  total_cycles /. (cfg.freq_ghz *. 1e6)

let run_to_memory ?seed (p : Prog.t) ast =
  let mem = Interp.alloc p in
  deterministic_fill ?seed p mem;
  ignore (Interp.run p ast mem);
  mem
