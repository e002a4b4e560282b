(* Autotuner (lib/tuner): determinism under a fixed seed (including
   invariance to the worker-domain count), tuning-database round-trip
   with an instant cache hit on the second tune, footprint pruning that
   never drops the known-best conv2d configuration, legality of every
   scored candidate (re-checked against the independent verifier, not
   just the tuner's own bookkeeping), the strategy ordering
   exhaustive <= greedy <= default on a small space, and a full-size
   conv2d tune that never regresses DRAM or cost and repeats from its
   database. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let conv2d_small () = (Registry.find "conv2d").Registry.small ()
let harris_small () = (Registry.find "harris").Registry.small ()

(* A deliberately small space so exhaustive search stays cheap: one
   flow ladder per test keeps total evaluations in the dozens. *)
let small_space ?(flows = [ Search_space.Ours ]) ?scratchpad_bytes p =
  Search_space.make ~ladder:[ 8; 16; 32 ] ~recompute_ladder:[ 4.0 ] ?flows:(Some flows)
    ?scratchpad_bytes p

let run_tune ?(strategy = Tuner.Greedy) ?(budget = 16) ?(jobs = 1) ?(seed = 0)
    ?space ?db_path ?force p =
  match Tuner.tune ~strategy ~budget ~jobs ~seed ?space ?db_path ?force p with
  | Ok r -> r
  | Error msg -> Alcotest.failf "tune failed: %s" msg

(* --- determinism ---------------------------------------------------- *)

let test_seed_determinism () =
  let p = harris_small () in
  let tune seed jobs =
    let r =
      run_tune ~strategy:Tuner.Random ~budget:10 ~seed ~jobs
        ~space:(small_space ~flows:Search_space.all_flows p)
        p
    in
    let e = r.Tuner.r_entry in
    ( Search_space.candidate_name e.Tune_db.en_best,
      Evaluator.cost e.Tune_db.en_best_score,
      e.Tune_db.en_evaluated,
      List.map fst e.Tune_db.en_trajectory )
  in
  let b1, c1, n1, t1 = tune 42 1 in
  let b2, c2, n2, t2 = tune 42 1 in
  check string "same seed, same best" b1 b2;
  check (Alcotest.float 0.0) "same seed, same cost" c1 c2;
  check int "same seed, same evaluations" n1 n2;
  check (Alcotest.list string) "same seed, same trajectory" t1 t2;
  (* the worker-domain count must not change the outcome: evaluation is
     pure and results are recorded in input order *)
  let b4, c4, n4, t4 = tune 42 4 in
  check string "jobs=4, same best" b1 b4;
  check (Alcotest.float 0.0) "jobs=4, same cost" c1 c4;
  check int "jobs=4, same evaluations" n1 n4;
  check (Alcotest.list string) "jobs=4, same trajectory" t1 t4;
  (* different seeds explore different prefixes of the shuffled space *)
  let _, _, n3, _ = tune 7 1 in
  check bool "different seed still within budget" true (n3 <= 10)

(* --- database round-trip and cache hit ------------------------------ *)

let test_db_roundtrip () =
  let path = Filename.temp_file "tune_db" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let p = conv2d_small () in
      let space = small_space p in
      let r1 = run_tune ~budget:8 ~space ~db_path:path p in
      check bool "first tune is not cached" false r1.Tuner.r_cached;
      (* the entry survives a save/load cycle intact *)
      let db =
        match Tune_db.load path with
        | Ok db -> db
        | Error msg -> Alcotest.failf "load failed: %s" msg
      in
      check int "one entry stored" 1 (List.length (Tune_db.entries db));
      let stored =
        match Tune_db.find db r1.Tuner.r_entry.Tune_db.en_key with
        | Some e -> e
        | None -> Alcotest.fail "stored entry not found under its key"
      in
      check string "round-tripped best config"
        (Search_space.candidate_name r1.Tuner.r_entry.Tune_db.en_best)
        (Search_space.candidate_name stored.Tune_db.en_best);
      check (Alcotest.float 0.0) "round-tripped best cost"
        (Evaluator.cost r1.Tuner.r_entry.Tune_db.en_best_score)
        (Evaluator.cost stored.Tune_db.en_best_score);
      (* the second tune answers from the database without evaluating:
         the tuner.evaluated counter must not move *)
      Obs.reset ();
      Obs.enable ();
      let r2 = run_tune ~budget:8 ~space ~db_path:path p in
      check bool "second tune is cached" true r2.Tuner.r_cached;
      check int "second tune evaluates nothing" 0
        (Obs.counter_value "tuner.evaluated");
      check string "cached best matches"
        (Search_space.candidate_name r1.Tuner.r_entry.Tune_db.en_best)
        (Search_space.candidate_name r2.Tuner.r_entry.Tune_db.en_best);
      (* --force re-tunes under the same key *)
      let r3 = run_tune ~budget:8 ~space ~db_path:path p ~force:true in
      check bool "--force re-tunes" false r3.Tuner.r_cached;
      check bool "--force re-evaluates" true
        (Obs.counter_value "tuner.evaluated" > 0))

(* --- footprint pruning keeps the known-best ------------------------- *)

let test_pruning_keeps_best () =
  let p = conv2d_small () in
  (* ground truth: exhaustively score the space with pruning disabled
     (a scratchpad so large every candidate fits) *)
  let unbounded = small_space ~scratchpad_bytes:max_int p in
  let all, pruned_none = Search_space.enumerate unbounded in
  check int "unbounded space prunes nothing" 0 pruned_none;
  let results = Evaluator.evaluate p all in
  let best =
    List.fold_left
      (fun acc (c, o) ->
        match (acc, o) with
        | None, Evaluator.Scored s -> Some (c, s)
        | Some (_, bs), Evaluator.Scored s
          when Evaluator.compare_scores s bs < 0 ->
            Some (c, s)
        | _ -> acc)
      None results
  in
  let best_c, best_s =
    match best with Some b -> b | None -> Alcotest.fail "nothing scored"
  in
  (* the real bound: the pruned space must still contain the true best,
     because the footprint estimate scales with exactly the staged
     bytes the model charges (never prunes below the measured need) *)
  let bounded = small_space p in
  check bool "footprint bound admits the measured best" true
    (Search_space.footprint_estimate bounded best_c.Search_space.cd_tiles
     >= best_s.Evaluator.sc_staged_bytes);
  let kept, _ = Search_space.enumerate bounded in
  check bool "pruned space still contains the known-best" true
    (List.exists
       (fun c ->
         Search_space.candidate_name c = Search_space.candidate_name best_c)
       kept)

(* --- every scored candidate is independently legal ------------------ *)

let test_all_evaluated_legal () =
  let p = harris_small () in
  let sp = small_space ~flows:Search_space.all_flows p in
  let cands, _ = Search_space.enumerate sp in
  (* cap the batch to keep the test quick, but cover every flow *)
  let cands = List.filteri (fun i _ -> i < 12) cands in
  let results = Evaluator.evaluate p cands in
  let deps = Deps.compute p in
  check bool "evaluated a non-empty batch" true (results <> []);
  List.iter
    (fun (c, o) ->
      match o with
      | Evaluator.Scored _ ->
          (* re-check with the verifier directly: the tuner's own
             bookkeeping is not trusted here *)
          let v =
            Evaluator.version_of ~target:Core.Pipeline.Cpu p c
          in
          let rep = Legality.check p ~deps (Exp_util.tree_of p v) in
          check
            Alcotest.(list string)
            (Printf.sprintf "%s verifies clean"
               (Search_space.candidate_name c))
            []
            (List.map Legality.violation_string rep.Legality.rep_violations)
      | Evaluator.Illegal _ -> ()  (* rejected, never scored: correct *)
      | Evaluator.Failed msg ->
          Alcotest.failf "%s failed to compile: %s"
            (Search_space.candidate_name c)
            msg)
    results

(* --- greedy vs exhaustive on a small space -------------------------- *)

let test_greedy_vs_exhaustive () =
  let p = harris_small () in
  let space () = small_space ~flows:[ Search_space.Ours; Search_space.Maxfuse ] p in
  let budget = 64 in
  let ex = run_tune ~strategy:Tuner.Exhaustive ~budget ~space:(space ()) p in
  let gr = run_tune ~strategy:Tuner.Greedy ~budget ~space:(space ()) p in
  let cost r = Evaluator.cost r.Tuner.r_entry.Tune_db.en_best_score in
  let default_cost r =
    Evaluator.cost r.Tuner.r_entry.Tune_db.en_default_score
  in
  check bool "exhaustive covered the whole space" true
    (ex.Tuner.r_entry.Tune_db.en_evaluated >= ex.Tuner.r_space
    || ex.Tuner.r_entry.Tune_db.en_evaluated = budget);
  check bool "exhaustive <= greedy" true (cost ex <= cost gr);
  check bool "greedy <= default" true (cost gr <= default_cost gr);
  check bool "greedy spends no more evaluations than exhaustive" true
    (gr.Tuner.r_entry.Tune_db.en_evaluated
    <= ex.Tuner.r_entry.Tune_db.en_evaluated);
  (* the DRAM guarantee *)
  List.iter
    (fun r ->
      check bool "tuned DRAM <= default DRAM" true
        (r.Tuner.r_entry.Tune_db.en_best_score.Evaluator.sc_dram_bytes
        <= r.Tuner.r_entry.Tune_db.en_default_score.Evaluator.sc_dram_bytes))
    [ ex; gr ];
  (* zero illegal candidates survive into either result: the winning
     configuration itself re-verifies clean *)
  List.iter
    (fun r ->
      let c = r.Tuner.r_entry.Tune_db.en_best in
      let v = Evaluator.version_of ~target:Core.Pipeline.Cpu p c in
      let rep =
        Legality.check p ~deps:(Deps.compute p) (Exp_util.tree_of p v)
      in
      check int
        (Search_space.candidate_name c ^ ": winner has no violations")
        0
        (List.length rep.Legality.rep_violations))
    [ ex; gr ]

(* --- full-size conv2d: the tuner's guarantees ----------------------- *)

(* A greedy tune of full-size conv2d at budget 24 on two workers: the
   chosen configuration models no more DRAM traffic and no higher cost
   than the default, and a second tune against the same database answers
   from it with the same choice. *)
let test_conv2d_guarantees () =
  let path = Filename.temp_file "tune_db" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let p = (Registry.find "conv2d").Registry.build () in
      let tune () = run_tune ~budget:24 ~jobs:2 ~db_path:path p in
      let r1 = tune () in
      let e1 = r1.Tuner.r_entry in
      check bool "tuned DRAM <= default DRAM" true
        (e1.Tune_db.en_best_score.Evaluator.sc_dram_bytes
        <= e1.Tune_db.en_default_score.Evaluator.sc_dram_bytes);
      check bool "tuned cost <= default cost" true
        (Evaluator.cost e1.Tune_db.en_best_score
        <= Evaluator.cost e1.Tune_db.en_default_score);
      check bool "first tune evaluated candidates" true
        (e1.Tune_db.en_evaluated > 0);
      check bool "first tune is not cached" false r1.Tuner.r_cached;
      let r2 = tune () in
      check bool "second tune is cached" true r2.Tuner.r_cached;
      check string "cached best matches"
        (Search_space.candidate_name e1.Tune_db.en_best)
        (Search_space.candidate_name r2.Tuner.r_entry.Tune_db.en_best))

let () =
  Harness.run "tuner"
    [ ( "determinism",
        [ Alcotest.test_case "fixed seed, any jobs" `Slow test_seed_determinism ]
      );
      ( "database",
        [ Alcotest.test_case "round-trip and cache hit" `Quick test_db_roundtrip ]
      );
      ( "pruning",
        [ Alcotest.test_case "keeps the known-best on conv2d" `Slow
            test_pruning_keeps_best
        ] );
      ( "legality",
        [ Alcotest.test_case "every scored candidate verifies" `Slow
            test_all_evaluated_legal
        ] );
      ( "strategies",
        [ Alcotest.test_case "exhaustive <= greedy <= default" `Slow
            test_greedy_vs_exhaustive
        ] );
      ( "conv2d",
        [ Alcotest.test_case "no regression, cached repeat" `Slow
            test_conv2d_guarantees
        ] )
    ]
