(* Parallel tile-graph runtime tests: the sequential interpreter
   ([Interp.run] via [Cpu_model.run_to_memory], same deterministic
   fill) is the oracle for the executor at one worker and at several
   -- a correct tile graph makes the parallel result bit-identical
   because every conflicting tile pair stays ordered by a
   sequence-order edge.

   Covers: differential runtime-vs-interpreter over registry workloads
   and fuzz seeds, tile-graph extraction invariants, exact edge counts
   on conv2d/jacobi and edges equal to the all-pairs predicate's, and
   the race checker itself (which must fire on a deliberately reversed
   execution order and stay silent on a valid one). *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let compile ?(tile = 8) p = Exp_util.ours ~tile ~target:Core.Pipeline.Cpu p

let live_out_equal p m1 m2 =
  List.for_all (fun a -> Interp.arrays_equal m1 m2 a) p.Prog.live_out

(* Run one workload through the runtime with [jobs] workers
   (race-checked) and compare its live-out arrays against the
   sequential interpreter. *)
let differential ~jobs p (v : Exp_util.version) =
  let deps = Exp_util.deps_of p v in
  let r = Runtime.run ~jobs ~race_check:true p ~deps v.Exp_util.ast in
  let oracle = Cpu_model.run_to_memory p v.Exp_util.ast in
  check bool
    (Printf.sprintf "%s: no race violations" p.Prog.prog_name)
    true
    (r.Runtime.metrics.Executor.m_violations = []);
  check bool
    (Printf.sprintf "%s: parallel result matches Interp.run" p.Prog.prog_name)
    true
    (live_out_equal p r.Runtime.mem oracle)

(* ------------------------------------------------------------------ *)
(* Differential: registry workloads, both flows, 1 and 4 workers       *)
(* ------------------------------------------------------------------ *)

let registry_workloads = [ "conv2d"; "unsharp_mask"; "harris"; "jacobi_unrolled"; "2mm" ]

let test_registry_parallel () =
  List.iter
    (fun name ->
      let e = Registry.find name in
      let p = e.Registry.small () in
      differential ~jobs:4 p (compile p))
    registry_workloads

(* One worker runs the items in id order on the calling domain. *)
let test_registry_one_worker () =
  List.iter
    (fun name ->
      let e = Registry.find name in
      let p = e.Registry.small () in
      let v = compile p in
      differential ~jobs:1 p v;
      let r = Runtime.run ~jobs:1 p ~deps:(Exp_util.deps_of p v) v.Exp_util.ast in
      check bool
        (Printf.sprintf "%s: one worker runs tiles in id order" name)
        true
        (List.map (fun t -> t.Executor.tl_tile) r.Runtime.metrics.Executor.m_timeline
        = List.init (Tile_graph.n_items r.Runtime.graph) Fun.id))
    [ "conv2d"; "unsharp_mask"; "harris"; "jacobi_unrolled" ]

let test_registry_smartfuse_parallel () =
  List.iter
    (fun name ->
      let e = Registry.find name in
      let p = e.Registry.small () in
      let v = Exp_util.heuristic ~tile:8 ~target:Core.Pipeline.Cpu Fusion.Smartfuse p in
      differential ~jobs:4 p v)
    [ "conv2d"; "harris"; "2mm" ]

(* No worker starts without a tile to take: conv2d at tile 32 is one
   tile, so eight jobs run one worker, and Obs reports that one. *)
let test_one_tile_one_worker () =
  let p = (Registry.find "conv2d").Registry.small () in
  let v = compile ~tile:32 p in
  Obs.reset ();
  Obs.enable ();
  let r = Runtime.run ~jobs:8 p ~deps:(Exp_util.deps_of p v) v.Exp_util.ast in
  check int "one tile" 1 (Tile_graph.n_items r.Runtime.graph);
  check int "one worker ran" 1 r.Runtime.metrics.Executor.m_jobs;
  check int "runtime.workers" 1 (Obs.counter_value "runtime.workers");
  check bool "result matches Interp.run" true
    (live_out_equal p r.Runtime.mem (Cpu_model.run_to_memory p v.Exp_util.ast))

(* ------------------------------------------------------------------ *)
(* Differential: random pipelines                                      *)
(* ------------------------------------------------------------------ *)

let test_fuzz_parallel () =
  List.iter
    (fun seed ->
      let p = Random_pipeline.generate Random_pipeline.default_config ~seed in
      let v = Exp_util.ours ~tile:5 ~target:Core.Pipeline.Cpu p in
      differential ~jobs:4 p v)
    [ 0; 2000; 3000 ]

(* ------------------------------------------------------------------ *)
(* Tile-graph extraction                                               *)
(* ------------------------------------------------------------------ *)

let graph_of ?(tile = 8) name =
  let e = Registry.find name in
  let p = e.Registry.small () in
  let v = compile ~tile p in
  (p, v, Tile_graph.extract p ~deps:(Exp_util.deps_of p v) v.Exp_util.ast)

let graph_invariants (g : Tile_graph.t) =
  let n = Tile_graph.n_items g in
  (* edges go from lower to higher id, so id order is a valid schedule *)
  Array.iteri
    (fun i succs -> List.iter (fun j -> check bool "edge i<j" true (i < j)) succs)
    g.Tile_graph.succs;
  let edge_count = Array.fold_left (fun a s -> a + List.length s) 0 g.Tile_graph.succs in
  check int "n_edges consistent with succs" g.Tile_graph.n_edges edge_count;
  let pred_total = Array.fold_left ( + ) 0 g.Tile_graph.preds in
  check int "preds consistent with succs" edge_count pred_total;
  (* wavefront levels respect every edge *)
  let levels = Tile_graph.levels g in
  check int "one level per item" n (Array.length levels);
  Array.iteri
    (fun i succs ->
      List.iter (fun j -> check bool "level increases along edges" true (levels.(i) < levels.(j))) succs)
    g.Tile_graph.succs

let test_extract_conv2d () =
  let _, _, g = graph_of "conv2d" in
  check int "conv2d tiles" 4 (Tile_graph.n_items g);
  check int "conv2d edges" 6 g.Tile_graph.n_edges;
  check bool "conv2d analyzable" false
    (Array.exists (fun it -> it.Tile_graph.opaque) g.Tile_graph.items);
  graph_invariants g

let test_extract_jacobi () =
  let _, _, g = graph_of "jacobi_unrolled" in
  check int "jacobi tiles" 8 (Tile_graph.n_items g);
  check int "jacobi edges" 7 g.Tile_graph.n_edges;
  graph_invariants g

let test_extract_harris_invariants () =
  let _, _, g = graph_of "harris" in
  check bool "harris has multiple tiles" true (Tile_graph.n_items g > 1);
  check bool "harris has edges" true (g.Tile_graph.n_edges > 0);
  graph_invariants g

let test_extract_deterministic () =
  let p, v, g1 = graph_of "harris" in
  let g2 = Tile_graph.extract p ~deps:(Exp_util.deps_of p v) v.Exp_util.ast in
  check int "same tiles" (Tile_graph.n_items g1) (Tile_graph.n_items g2);
  check int "same edges" g1.Tile_graph.n_edges g2.Tile_graph.n_edges;
  Array.iteri
    (fun i s -> check bool "same succs" true (s = g2.Tile_graph.succs.(i)))
    g1.Tile_graph.succs

let test_max_tiles_cap () =
  let e = Registry.find "harris" in
  let p = e.Registry.small () in
  let v = compile p in
  let g = Tile_graph.extract ~max_tiles:2 p ~deps:(Exp_util.deps_of p v) v.Exp_util.ast in
  (* the cap is soft: coarsened subtrees still execute correctly *)
  check bool "capped below full graph" true (Tile_graph.n_items g <= 4);
  let mem = Interp.alloc p in
  Cpu_model.deterministic_fill p mem;
  ignore (Executor.run_sequential p g mem);
  let oracle = Cpu_model.run_to_memory p v.Exp_util.ast in
  check bool "coarsened graph still correct" true (live_out_equal p mem oracle)

(* The edge predicate computed directly, pair by pair, over the items'
   hashed boxes and statement names: an opaque item is ordered against
   every other, two analyzable items when a write box of one overlaps a
   read or write box of the other on the same array and some statement
   pair of theirs has a dependence in either direction. [extract]'s
   edge scan must give the same graph. *)
let reference_edges ~(deps : Deps.t list) (g : Tile_graph.t) =
  let items = g.Tile_graph.items in
  let n = Array.length items in
  let dep_pair = Hashtbl.create 32 in
  List.iter
    (fun (d : Deps.t) -> Hashtbl.replace dep_pair (d.Deps.src, d.Deps.dst) ())
    deps;
  let stmt_dep (a : Tile_graph.item) (b : Tile_graph.item) =
    List.exists
      (fun s ->
        List.exists
          (fun t -> Hashtbl.mem dep_pair (s, t) || Hashtbl.mem dep_pair (t, s))
          b.Tile_graph.stmts)
      a.Tile_graph.stmts
  in
  let conflict w r =
    Hashtbl.fold
      (fun arr box acc ->
        acc
        ||
        match Hashtbl.find_opt r arr with
        | Some box2 -> Tile_graph.overlap box box2
        | None -> false)
      w false
  in
  let succs = Array.make n [] and preds = Array.make n 0 in
  let n_edges = ref 0 in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      let a = items.(i) and b = items.(j) in
      let open Tile_graph in
      if
        a.opaque || b.opaque
        || (conflict a.writes b.reads || conflict a.writes b.writes
           || conflict b.writes a.reads)
           && stmt_dep a b
      then begin
        succs.(i) <- j :: succs.(i);
        preds.(j) <- preds.(j) + 1;
        incr n_edges
      end
    done
  done;
  (succs, preds, !n_edges)

let check_edges_match_reference what ?max_tiles p ~deps ast =
  let g = Tile_graph.extract ?max_tiles p ~deps ast in
  let succs, preds, n_edges = reference_edges ~deps g in
  check int (what ^ ": n_edges") n_edges g.Tile_graph.n_edges;
  check bool (what ^ ": preds") true (preds = g.Tile_graph.preds);
  check bool (what ^ ": succs") true (succs = g.Tile_graph.succs)

let check_flows_match_reference name ?max_tiles p tiles =
  List.iter
    (fun tile ->
      List.iter
        (fun (flow, (v : Exp_util.version)) ->
          check_edges_match_reference
            (Printf.sprintf "%s %s tile %d" name flow tile)
            ?max_tiles p ~deps:(Exp_util.deps_of p v) v.Exp_util.ast)
        [ ("ours", compile ~tile p);
          ( "smartfuse",
            Exp_util.heuristic ~tile ~target:Core.Pipeline.Cpu
              Fusion.Smartfuse p )
        ])
    tiles

let test_edges_match_reference () =
  List.iter
    (fun (e : Registry.entry) ->
      check_flows_match_reference e.Registry.reg_name (e.Registry.small ())
        [ 4; 8 ])
    Registry.all;
  (* full size at the tuner's cap: covariance's 417 items under ours
     are 86,736 pairs *)
  List.iter
    (fun name ->
      check_flows_match_reference (name ^ " full size") ~max_tiles:256
        ((Registry.find name).Registry.build ())
        [ 8; 64 ])
    [ "covariance"; "jacobi_unrolled" ];
  (* coarsened items *)
  check_flows_match_reference "harris coarsened" ~max_tiles:2
    ((Registry.find "harris").Registry.small ())
    [ 4; 8 ];
  (* consumers before their producers: conv2d's naive nests in reverse
     order, so each conflict has the later item writing what the
     earlier one reads, under a dependence whose source statement is
     the later item's *)
  let p = (Registry.find "conv2d").Registry.small () in
  let reversed =
    match (Exp_util.naive p).Exp_util.ast with
    | Ast.Block ts -> Ast.Block (List.rev ts)
    | t -> t
  in
  check_edges_match_reference "conv2d naive, reversed" p
    ~deps:(Deps.compute p) reversed;
  (* an opaque item, ordered against every other *)
  let v = compile p in
  let unbounded =
    Ast.Call
      { stmt = (List.hd p.Prog.stmts).Prog.stmt_name;
        args = [ Ast.Var "unbound" ]
      }
  in
  check_edges_match_reference "conv2d with an opaque item" p
    ~deps:(Exp_util.deps_of p v)
    (Ast.Block [ v.Exp_util.ast; unbounded; v.Exp_util.ast ])

(* ------------------------------------------------------------------ *)
(* Timelines: busy-time conservation                                   *)
(* ------------------------------------------------------------------ *)

(* Worker busy time is defined as the per-tile timeline intervals
   summed per worker; check the conservation law across jobs settings
   and that the timeline covers every tile exactly once. *)
let test_timeline_conservation () =
  let e = Registry.find "harris" in
  let p = e.Registry.small () in
  let v = compile p in
  let deps = Exp_util.deps_of p v in
  List.iter
    (fun jobs ->
      let r = Runtime.run ~jobs p ~deps v.Exp_util.ast in
      let m = r.Runtime.metrics in
      let tl = m.Executor.m_timeline in
      check int
        (Printf.sprintf "jobs=%d: one timeline entry per tile" jobs)
        m.Executor.m_tiles (List.length tl);
      let tiles = List.sort compare (List.map (fun t -> t.Executor.tl_tile) tl) in
      check bool
        (Printf.sprintf "jobs=%d: each tile appears exactly once" jobs)
        true
        (tiles = List.init m.Executor.m_tiles (fun i -> i));
      check bool
        (Printf.sprintf "jobs=%d: timeline sorted by start" jobs)
        true
        (let rec sorted = function
           | a :: (b :: _ as rest) ->
               a.Executor.tl_start_s <= b.Executor.tl_start_s && sorted rest
           | _ -> true
         in
         sorted tl);
      List.iter
        (fun t ->
          check bool "worker id in range" true
            (t.Executor.tl_worker >= 0 && t.Executor.tl_worker < jobs);
          check bool "start/dur non-negative" true
            (t.Executor.tl_start_s >= 0.0 && t.Executor.tl_dur_s >= 0.0))
        tl;
      (* conservation, per worker: busy.(w) == sum of w's durations *)
      Array.iteri
        (fun w busy ->
          let from_tl =
            List.fold_left
              (fun acc t ->
                if t.Executor.tl_worker = w then acc +. t.Executor.tl_dur_s
                else acc)
              0.0 tl
          in
          check bool
            (Printf.sprintf "jobs=%d worker %d: busy == timeline sum" jobs w)
            true
            (abs_float (busy -. from_tl) < 1e-9))
        m.Executor.m_busy_s)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* A raising tile                                                      *)
(* ------------------------------------------------------------------ *)

(* A tile that raises never releases its successors, so the other
   workers must not wait for them: with each root tile's body replaced
   by a call to an unknown statement, the exception leaves
   [Executor.run] at 2 and at 4 workers. *)
let test_raising_root_tile () =
  List.iter
    (fun name ->
      let p, _, g = graph_of name in
      let raising = Ast.Call { stmt = "no_such_stmt"; args = [] } in
      Array.iteri
        (fun root preds ->
          if preds = 0 then
            List.iter
              (fun jobs ->
                let items =
                  Array.mapi
                    (fun i it ->
                      if i = root then { it with Tile_graph.body = raising }
                      else it)
                    g.Tile_graph.items
                in
                let mem = Interp.alloc p in
                Cpu_model.deterministic_fill p mem;
                let what =
                  Printf.sprintf "%s root %d, %d workers" name root jobs
                in
                match
                  Executor.run ~jobs ~race_check:false p
                    { g with Tile_graph.items } mem
                with
                | _ -> Alcotest.failf "%s: returned" what
                | exception Invalid_argument msg ->
                    check bool (what ^ ": the tile's error") true
                      (msg = "Interp: unknown statement no_such_stmt"))
              [ 2; 4 ])
        g.Tile_graph.preds)
    [ "2mm"; "unsharp_mask" ]

(* ------------------------------------------------------------------ *)
(* Race checker                                                        *)
(* ------------------------------------------------------------------ *)

(* The checker must fire when tiles run in an order that breaks a
   dependence edge: execute harris's tiles in reverse id order, so
   every consumer tile reads cells whose producer has not completed. *)
let test_race_checker_fires () =
  let e = Registry.find "harris" in
  let p = e.Registry.small () in
  let v = compile p in
  let g = Tile_graph.extract p ~deps:(Exp_util.deps_of p v) v.Exp_util.ast in
  check bool "needs edges for the test to mean anything" true (g.Tile_graph.n_edges > 0);
  let n = Tile_graph.n_items g in
  let reversed = Array.init n (fun i -> n - 1 - i) in
  let mem = Interp.alloc p in
  Cpu_model.deterministic_fill p mem;
  let m = Executor.run_sequential ~order:reversed ~race_check:true p g mem in
  check bool "reversed order trips the race checker" true
    (m.Executor.m_violations <> []);
  List.iter
    (fun (viol : Executor.violation) ->
      check bool "violation names a real writer tile" true
        (viol.Executor.v_writer >= 0 && viol.Executor.v_writer < n);
      check bool "reader ran before its producer" true
        (viol.Executor.v_writer <> viol.Executor.v_tile))
    m.Executor.m_violations

let test_race_checker_silent_on_valid_order () =
  let e = Registry.find "harris" in
  let p = e.Registry.small () in
  let v = compile p in
  let g = Tile_graph.extract p ~deps:(Exp_util.deps_of p v) v.Exp_util.ast in
  let mem = Interp.alloc p in
  Cpu_model.deterministic_fill p mem;
  let m = Executor.run_sequential ~race_check:true p g mem in
  check bool "id order is race-free" true (m.Executor.m_violations = [])

let () =
  Harness.run "runtime"
    [ ( "differential",
        [ Alcotest.test_case "registry x ours, 4 workers" `Slow test_registry_parallel;
          Alcotest.test_case "registry x smartfuse, 4 workers" `Slow
            test_registry_smartfuse_parallel;
          Alcotest.test_case "fuzz seeds 0/2000/3000" `Slow test_fuzz_parallel;
          Alcotest.test_case "registry x ours, 1 worker" `Quick
            test_registry_one_worker;
          Alcotest.test_case "one tile, eight jobs, one worker" `Quick
            test_one_tile_one_worker
        ] );
      ( "tile-graph",
        [ Alcotest.test_case "conv2d counts" `Quick test_extract_conv2d;
          Alcotest.test_case "jacobi counts" `Quick test_extract_jacobi;
          Alcotest.test_case "harris invariants" `Quick test_extract_harris_invariants;
          Alcotest.test_case "deterministic" `Quick test_extract_deterministic;
          Alcotest.test_case "max-tiles cap" `Quick test_max_tiles_cap;
          Alcotest.test_case "edges match the all-pairs predicate" `Quick
            test_edges_match_reference
        ] );
      ( "timelines",
        [ Alcotest.test_case "busy-time conservation across jobs" `Quick
            test_timeline_conservation
        ] );
      ( "failures",
        [ Alcotest.test_case "raising root tile, 2 and 4 workers" `Quick
            test_raising_root_tile
        ] );
      ( "race-checker",
        [ Alcotest.test_case "fires on reversed order" `Quick test_race_checker_fires;
          Alcotest.test_case "silent on valid order" `Quick
            test_race_checker_silent_on_valid_order
        ] )
    ]
