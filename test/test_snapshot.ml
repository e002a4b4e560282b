(* Tests for the perf-snapshot database (lib/obs/bench_db.ml): JSON
   round-trips, capture from live obs state, exact diff classification
   of every metric (per-array attribution included), and the exit-code
   contract of the regression gate. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

module Json = Json_util.Json

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let sample_snapshot ?(workload = "conv2d") ?(flow = "ours") ?(fm = 321)
    ?(attribution = [ ("B", 4096, 0); ("C", 0, 784) ]) () =
  { Bench_db.workload;
    flow;
    metrics =
      List.sort compare
        ([ ("span.pipeline.compile.calls", 1);
           ("span.tile_shapes.construct.calls", 3);
           ("counter.bmap.apply_range", 17);
           ("counter.fm.eliminate", fm);
           ("cache.L1.hits", 1000);
           ("cache.L1.misses", 20);
           ("cache.L2.hits", 15);
           ("cache.L2.misses", 5);
           ("cache.dram", 5);
           ("traffic.read_bytes", 4096);
           ("traffic.write_bytes", 784);
           ("traffic.staged_bytes", 256);
           ("ast.loops", 10);
           ("ast.kernels", 2);
           ("ast.nodes", 18)
         ]
        @ List.concat_map
            (fun (a, r, w) ->
              [ ("attribution." ^ a ^ ".read_bytes", r);
                ("attribution." ^ a ^ ".write_bytes", w)
              ])
            attribution)
  }

let sample_db ?label ?(snapshots = [ sample_snapshot () ]) () =
  Bench_db.make ~label:(Option.value ~default:"test" label) snapshots

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* Load a database file holding [text]. *)
let load_text text =
  let path = Filename.temp_file "bench_db_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Bench_db.load path)

(* ------------------------------------------------------------------ *)
(* JSON round-trips                                                    *)
(* ------------------------------------------------------------------ *)

let test_json_value_roundtrip () =
  let open Json in
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
  let open Json in
  List.iter
    (fun s ->
      match parse s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    [ "{"; "{\"a\":}"; "[1,]"; "tru"; "\"unterminated"; "{} trailing"; "" ]

let test_snapshot_missing_field () =
  match
    load_text
      (Printf.sprintf
         "{\"schema_version\":%d,\"label\":\"x\",\"snapshots\":[{\"workload\":\"x\"}]}"
         Bench_db.schema_version)
  with
  | Ok _ -> Alcotest.fail "expected an error for a truncated snapshot"
  | Error msg -> check bool "error names the field" true (contains msg "\"flow\"")

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

(* Only the current schema loads: a newer file and an older one (schema
   4, which nested the counts in typed records) are both refused,
   naming both versions. *)
let test_db_schema_version_check () =
  List.iter
    (fun version ->
      match
        load_text
          (Printf.sprintf
             "{\"schema_version\":%d,\"label\":\"x\",\"snapshots\":[]}" version)
      with
      | Ok _ -> Alcotest.failf "expected schema %d to be refused" version
      | Error msg ->
          check bool "names the file's version" true
            (contains msg (Printf.sprintf "schema_version %d" version));
          check bool "names the supported version" true
            (contains msg (string_of_int Bench_db.schema_version)))
    [ 99; 4 ]

(* ------------------------------------------------------------------ *)
(* Capture from live obs state                                         *)
(* ------------------------------------------------------------------ *)

let test_capture_reads_obs () =
  Obs.reset ();
  Obs.enable ();
  ignore (Obs.span "pass.alpha" (fun () -> 1 + 1));
  Obs.count "ctr.x";
  Obs.add "ctr.x" 4;
  let s = Bench_db.capture ~workload:"w" ~flow:"f" [ ("ast.nodes", 1) ] in
  Obs.disable ();
  let m = s.Bench_db.metrics in
  check bool "span calls captured" true
    (List.assoc_opt "span.pass.alpha.calls" m = Some 1);
  check bool "counter captured" true (List.assoc_opt "counter.ctr.x" m = Some 5);
  check bool "supplied metric kept" true (List.assoc_opt "ast.nodes" m = Some 1);
  check bool "sorted by name" true (m = List.sort compare m)

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

(* Traffic moved between arrays with the totals unchanged: the
   per-array attribution gates like every other count. *)
let test_diff_attribution_drift () =
  let base = sample_db () in
  let cand =
    sample_db
      ~snapshots:[ sample_snapshot ~attribution:[ ("B", 4032, 0); ("C", 64, 784) ] () ]
      ()
  in
  let deltas = Bench_db.diff ~base ~cand in
  check bool "only the receiving array regresses" true
    (List.map (fun d -> d.Bench_db.d_metric) (Bench_db.regressions deltas)
    = [ "attribution.C.read_bytes" ]);
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
      Bench_db.metrics =
        List.remove_assoc "counter.fm.eliminate" base_snap.Bench_db.metrics
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
      Bench_db.metrics =
        ("counter.tuner.evaluated", 12) :: base_snap.Bench_db.metrics
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
  match Json.parse (Bench_db.deltas_json deltas) with
  | Error msg -> Alcotest.failf "deltas JSON invalid: %s" msg
  | Ok j -> (
      match Json.member "summary" j with
      | Some summary ->
          check bool "regressed count exported" true
            (Json.member "regressed" summary = Some (Json.Num 1.0))
      | None -> Alcotest.fail "summary object missing")

let () =
  Harness.run "snapshot"
    [ ( "json",
        [ Alcotest.test_case "value round-trip" `Quick test_json_value_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors
        ] );
      ( "snapshot",
        [ Alcotest.test_case "missing field" `Quick test_snapshot_missing_field;
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
          Alcotest.test_case "attribution drift gates" `Quick
            test_diff_attribution_drift;
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
