(* Tests for the perf-snapshot subsystem (lib/obs/snapshot.ml,
   lib/obs/bench_db.ml): JSON round-trips, capture from live obs state,
   exact diff classification, and the exit-code contract of the
   regression gate. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let sample_snapshot ?(workload = "conv2d") ?(flow = "ours") ?(fm = 321) () =
  { Snapshot.workload;
    flow;
    span_calls = [ ("pipeline.compile", 1); ("tile_shapes.construct", 3) ];
    counters = [ ("bmap.apply_range", 17); ("fm.eliminate", fm) ];
    cache_levels =
      [ { Snapshot.cl_name = "L1"; cl_hits = 1000; cl_misses = 20 };
        { Snapshot.cl_name = "L2"; cl_hits = 15; cl_misses = 5 }
      ];
    dram_accesses = 5;
    traffic =
      { Snapshot.tr_read_bytes = 4096;
        tr_write_bytes = 784;
        tr_staged_bytes = 256
      };
    ast = { Snapshot.ast_loops = 10; ast_kernels = 2; ast_nodes = 18 };
    attribution = [ ("B", 4096, 0); ("C", 0, 784) ]
  }

let sample_db ?label ?(snapshots = [ sample_snapshot () ]) () =
  Bench_db.make ~label:(Option.value ~default:"test" label) snapshots

(* ------------------------------------------------------------------ *)
(* JSON round-trips                                                    *)
(* ------------------------------------------------------------------ *)

let test_json_value_roundtrip () =
  let open Snapshot.Json in
  let j =
    Obj
      [ ("s", Str "a\"b\\c\nd");
        ("n", Num 0.30000000000000004);
        ("i", Num 42.0);
        ("l", Arr [ Bool true; Bool false; Null ]);
        ("o", Obj [ ("nested", Arr []) ])
      ]
  in
  match parse (to_string j) with
  | Ok j' -> check bool "value round-trip" true (j = j')
  | Error msg -> Alcotest.failf "reparse failed: %s" msg

let test_json_parse_errors () =
  let open Snapshot.Json in
  List.iter
    (fun s ->
      match parse s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    [ "{"; "{\"a\":}"; "[1,]"; "tru"; "\"unterminated"; "{} trailing"; "" ]

let test_snapshot_roundtrip () =
  let s = sample_snapshot () in
  match Snapshot.of_string (Snapshot.to_string s) with
  | Ok s' -> check bool "snapshot round-trip is exact" true (s = s')
  | Error msg -> Alcotest.failf "of_string failed: %s" msg

let test_snapshot_missing_field () =
  match Snapshot.of_string "{\"workload\":\"x\"}" with
  | Ok _ -> Alcotest.fail "expected an error for a truncated snapshot"
  | Error msg -> check bool "error names the field" true (String.length msg > 0)

let test_db_roundtrip_via_file () =
  let db = sample_db ~snapshots:[ sample_snapshot (); sample_snapshot ~flow:"smartfuse" () ] () in
  let path = Filename.temp_file "bench_db_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check bool "save succeeds" true (Bench_db.save path db = Ok ());
      match Bench_db.load path with
      | Ok db' ->
          check bool "label" true (db'.Bench_db.label = "test");
          check bool "snapshots survive save/load" true
            (db'.Bench_db.snapshots = db.Bench_db.snapshots)
      | Error msg -> Alcotest.failf "load failed: %s" msg)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* Only the current schema loads: a newer file and an older one (schema
   2, which carried wall times) are both refused, naming both versions. *)
let test_db_schema_version_check () =
  List.iter
    (fun version ->
      let path = Filename.temp_file "bench_db_test" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out path in
          Printf.fprintf oc
            "{\"schema_version\":%d,\"label\":\"x\",\"snapshots\":[]}" version;
          close_out oc;
          match Bench_db.load path with
          | Ok _ -> Alcotest.failf "expected schema %d to be refused" version
          | Error msg ->
              check bool "names the file's version" true
                (contains msg (Printf.sprintf "schema_version %d" version));
              check bool "names the supported version" true
                (contains msg (string_of_int Bench_db.schema_version))))
    [ 99; 2 ]

(* ------------------------------------------------------------------ *)
(* Capture from live obs state                                         *)
(* ------------------------------------------------------------------ *)

let test_capture_reads_obs () =
  Obs.reset ();
  Obs.enable ();
  ignore (Obs.span "pass.alpha" (fun () -> 1 + 1));
  Obs.count "ctr.x";
  Obs.add "ctr.x" 4;
  let s =
    Snapshot.capture ~workload:"w" ~flow:"f" ~cache_levels:[]
      ~dram_accesses:0
      ~traffic:
        { Snapshot.tr_read_bytes = 0; tr_write_bytes = 0; tr_staged_bytes = 0 }
      ~ast:{ Snapshot.ast_loops = 0; ast_kernels = 0; ast_nodes = 1 }
      ~attribution:[]
  in
  Obs.disable ();
  check bool "span calls captured" true
    (List.assoc_opt "pass.alpha" s.Snapshot.span_calls = Some 1);
  check bool "counter captured" true
    (List.assoc_opt "ctr.x" s.Snapshot.counters = Some 5)

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let test_classify_counter () =
  let open Bench_db in
  check bool "equal" true (classify_counter ~base:7 ~cand:7 = Unchanged);
  check bool "increase regresses" true
    (classify_counter ~base:7 ~cand:8 = Regressed);
  check bool "decrease improves" true
    (classify_counter ~base:7 ~cand:6 = Improved)

(* ------------------------------------------------------------------ *)
(* Diff over databases                                                 *)
(* ------------------------------------------------------------------ *)

let test_diff_unchanged () =
  let base = sample_db () and cand = sample_db () in
  let deltas = Bench_db.diff ~base ~cand in
  check bool "no deltas classified non-unchanged" true
    (List.for_all (fun d -> d.Bench_db.d_class = Bench_db.Unchanged) deltas);
  check int "gate passes" 0 (Bench_db.gate deltas)

let test_diff_counter_drift () =
  let base = sample_db () in
  let cand = sample_db ~snapshots:[ sample_snapshot ~fm:322 () ] () in
  let deltas = Bench_db.diff ~base ~cand in
  let regressed = Bench_db.regressions deltas in
  check bool "counter drift regresses exactly" true
    (List.map (fun d -> d.Bench_db.d_metric) regressed
    = [ "counter.fm.eliminate" ]);
  check int "gate fails" 1 (Bench_db.gate deltas)

let test_diff_missing_pair () =
  let base =
    sample_db ~snapshots:[ sample_snapshot (); sample_snapshot ~flow:"smartfuse" () ] ()
  in
  let cand = sample_db ~snapshots:[ sample_snapshot () ] () in
  let deltas = Bench_db.diff ~base ~cand in
  let regressed = Bench_db.regressions deltas in
  check bool "vanished workload x flow regresses" true
    (List.exists
       (fun d ->
         d.Bench_db.d_flow = "smartfuse"
         && d.Bench_db.d_metric = "snapshot.present")
       regressed);
  check int "gate fails" 1 (Bench_db.gate deltas)

let test_diff_added_is_not_regression () =
  let base = sample_db () in
  let cand =
    sample_db ~snapshots:[ sample_snapshot (); sample_snapshot ~workload:"new_wl" () ] ()
  in
  let deltas = Bench_db.diff ~base ~cand in
  check bool "new pair reported as added" true
    (List.exists
       (fun d ->
         d.Bench_db.d_workload = "new_wl" && d.Bench_db.d_class = Bench_db.Added)
       deltas);
  check int "gate still passes" 0 (Bench_db.gate deltas)

(* Missing-metric direction: a counter present in the base but absent
   from the candidate is reported as removed AND gates (lost coverage
   must not silently pass); a metric only in the candidate is added and
   never gates. *)
let test_diff_removed_metric_gates () =
  let base_snap = sample_snapshot () in
  let cand_snap =
    { base_snap with
      Snapshot.counters = [ ("bmap.apply_range", 17) ] (* fm.eliminate gone *)
    }
  in
  let base = sample_db ~snapshots:[ base_snap ] () in
  let cand = sample_db ~snapshots:[ cand_snap ] () in
  let deltas = Bench_db.diff ~base ~cand in
  let removed =
    List.filter (fun d -> d.Bench_db.d_class = Bench_db.Removed) deltas
  in
  check bool "direction is explicit: classified removed, not improved" true
    (List.map (fun d -> d.Bench_db.d_metric) removed
    = [ "counter.fm.eliminate" ]);
  check bool "the removed counter is a gating regression" true
    (List.exists
       (fun d -> d.Bench_db.d_metric = "counter.fm.eliminate")
       (Bench_db.regressions deltas));
  check int "gate fails on silently lost coverage" 1 (Bench_db.gate deltas)

let test_diff_added_metric_passes () =
  let base_snap = sample_snapshot () in
  let cand_snap =
    { base_snap with
      Snapshot.counters = ("tuner.evaluated", 12) :: base_snap.Snapshot.counters
    }
  in
  let base = sample_db ~snapshots:[ base_snap ] () in
  let cand = sample_db ~snapshots:[ cand_snap ] () in
  let deltas = Bench_db.diff ~base ~cand in
  check bool "new metric reported as added" true
    (List.exists
       (fun d ->
         d.Bench_db.d_metric = "counter.tuner.evaluated"
         && d.Bench_db.d_class = Bench_db.Added)
       deltas);
  check int "added metric never gates" 0 (Bench_db.gate deltas)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let test_summary_table () =
  let base = sample_db () in
  let cand = sample_db ~snapshots:[ sample_snapshot ~fm:322 () ] () in
  let deltas = Bench_db.diff ~base ~cand in
  let table = Bench_db.summary_table deltas in
  check bool "names the metric" true (contains table "counter.fm.eliminate");
  check bool "marks the regression" true (contains table "REGRESSED");
  check bool "summary counts" true (contains table "1 regressed")

let test_deltas_json_wellformed () =
  let base = sample_db () in
  let cand = sample_db ~snapshots:[ sample_snapshot ~fm:322 () ] () in
  let deltas = Bench_db.diff ~base ~cand in
  match Snapshot.Json.parse (Bench_db.deltas_json deltas) with
  | Error msg -> Alcotest.failf "deltas JSON invalid: %s" msg
  | Ok j -> (
      match Snapshot.Json.member "summary" j with
      | Some summary ->
          check bool "regressed count exported" true
            (Snapshot.Json.member "regressed" summary
            = Some (Snapshot.Json.Num 1.0))
      | None -> Alcotest.fail "summary object missing")

let () =
  Harness.run "snapshot"
    [ ( "json",
        [ Alcotest.test_case "value round-trip" `Quick test_json_value_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors
        ] );
      ( "snapshot",
        [ Alcotest.test_case "exact round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "missing field" `Quick test_snapshot_missing_field;
          Alcotest.test_case "capture reads obs" `Quick test_capture_reads_obs
        ] );
      ( "db",
        [ Alcotest.test_case "save/load round-trip" `Quick test_db_roundtrip_via_file;
          Alcotest.test_case "schema version check" `Quick
            test_db_schema_version_check
        ] );
      ( "classify",
        [ Alcotest.test_case "counters exact" `Quick test_classify_counter ] );
      ( "diff",
        [ Alcotest.test_case "unchanged tree passes" `Quick test_diff_unchanged;
          Alcotest.test_case "counter drift gates" `Quick test_diff_counter_drift;
          Alcotest.test_case "missing pair gates" `Quick test_diff_missing_pair;
          Alcotest.test_case "added pair passes" `Quick
            test_diff_added_is_not_regression;
          Alcotest.test_case "removed metric gates" `Quick
            test_diff_removed_metric_gates;
          Alcotest.test_case "added metric passes" `Quick
            test_diff_added_metric_passes
        ] );
      ( "render",
        [ Alcotest.test_case "summary table" `Quick test_summary_table;
          Alcotest.test_case "deltas json" `Quick test_deltas_json_wellformed
        ] )
    ]
