(* Facade: allocate memory, fill it deterministically (same seed as
   the machine models, so results are comparable with [Interp.run] /
   [Cpu_model.run_to_memory]), extract the tile graph, execute it, and
   report runtime.* observability counters from the main thread. *)

type result = {
  mem : Interp.memory;
  graph : Tile_graph.t;
  metrics : Executor.metrics;
  wall_s : float;
}

let run ?(jobs = 1) ?(race_check = false) ?(seed = 42) (p : Prog.t) ~deps ast =
  Obs.span "runtime.run" @@ fun () ->
  let mem = Interp.alloc p in
  Cpu_model.deterministic_fill ~seed p mem;
  let graph = Tile_graph.extract p ~deps ast in
  let t0 = Unix.gettimeofday () in
  let metrics =
    Obs.span "runtime.execute" (fun () ->
        Executor.run ~jobs ~race_check p graph mem)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  Obs.add "runtime.tiles" metrics.Executor.m_tiles;
  Obs.add "runtime.edges" graph.Tile_graph.n_edges;
  Obs.add "runtime.steals" metrics.Executor.m_steals;
  Obs.add "runtime.race_violations" (List.length metrics.Executor.m_violations);
  Obs.add "runtime.workers" metrics.Executor.m_jobs;
  Array.iter
    (fun b -> Obs.observe "runtime.worker_busy_us" (1e6 *. b))
    metrics.Executor.m_busy_s;
  (* timeline events carry the executor-relative start; shift to the
     Obs epoch so they interleave correctly with compiler spans *)
  let exec_epoch = Obs.elapsed_s () -. wall_s in
  List.iter
    (fun e ->
      Obs.event ~ts_s:(exec_epoch +. e.Executor.tl_start_s)
        ~dur_s:e.Executor.tl_dur_s ~cat:"runtime" "runtime.tile"
        [ ("tile", Obs.I e.Executor.tl_tile);
          ("worker", Obs.I e.Executor.tl_worker) ])
    metrics.Executor.m_timeline;
  { mem; graph; metrics; wall_s }
