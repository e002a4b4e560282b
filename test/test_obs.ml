(* Tests for the lib/obs observability layer: span nesting and timing
   monotonicity, counter accumulation/reset, disabled-mode no-op
   behaviour, exact totals under concurrent domains, atomic reset,
   well-formedness of the Chrome trace and the stats table, and the
   JSON parser/printer's round-trip and errors. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Disabled-mode no-op behaviour                                       *)
(* ------------------------------------------------------------------ *)

let test_disabled_noop () =
  Obs.disable ();
  Obs.reset ();
  Obs.count "x";
  Obs.add "x" 41;
  Obs.observe "h" 7.0;
  let r = Obs.span "s" (fun () -> 42) in
  check int "span returns value when disabled" 42 r;
  check int "counter untouched when disabled" 0 (Obs.counter_value "x");
  check int "span not recorded when disabled" 0 (Obs.span_calls "s");
  check bool "histogram not recorded when disabled" true
    (Obs.histogram_summary "h" = None)

(* ------------------------------------------------------------------ *)
(* Counter accumulation and reset                                      *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  Obs.reset ();
  Obs.enable ();
  Obs.count "a";
  Obs.count "a";
  Obs.add "a" 5;
  Obs.count "b";
  check int "accumulates" 7 (Obs.counter_value "a");
  check int "independent counters" 1 (Obs.counter_value "b");
  check int "absent counter reads zero" 0 (Obs.counter_value "absent");
  check bool "alist sorted and complete" true
    (Obs.counters_alist () = [ ("a", 7); ("b", 1) ]);
  Obs.reset ();
  check int "reset clears" 0 (Obs.counter_value "a");
  Obs.disable ()

let test_histograms () =
  Obs.reset ();
  Obs.enable ();
  Obs.observe "h" 1.0;
  Obs.observe "h" 3.0;
  Obs.observe_int "h" 8;
  (match Obs.histogram_summary "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some (count, sum, mn, mx) ->
      check int "count" 3 count;
      check bool "sum" true (abs_float (sum -. 12.0) < 1e-9);
      check bool "min" true (mn = 1.0);
      check bool "max" true (mx = 8.0));
  Obs.disable ()

(* ------------------------------------------------------------------ *)
(* Domain safety + atomic reset                                        *)
(* ------------------------------------------------------------------ *)

(* The parallel tuner and the runtime workers record from several
   domains at once; the shared registries must not lose an update. *)
let test_concurrent_counters_exact () =
  Obs.reset ();
  Obs.enable ();
  let domains = 4 and per_domain = 10_000 in
  let work () =
    for _ = 1 to per_domain do
      Obs.count "stress.counter";
      Obs.observe "stress.hist" 3.0
    done
  in
  let doms = List.init domains (fun _ -> Domain.spawn work) in
  List.iter Domain.join doms;
  check int "counter exact" (domains * per_domain)
    (Obs.counter_value "stress.counter");
  (match Obs.histogram_summary "stress.hist" with
  | Some (count, sum, _, _) ->
      check int "histogram count exact" (domains * per_domain) count;
      Alcotest.(check (float 0.001)) "histogram sum exact"
        (3.0 *. float_of_int (domains * per_domain))
        sum
  | None -> Alcotest.fail "histogram missing");
  Obs.disable ()

let test_reset_clears_everything () =
  Obs.reset ();
  Obs.enable ();
  Obs.count "c";
  Obs.observe "h" 5.0;
  Obs.span "s" (fun () -> ());
  Obs.event "ev" [ ("k", Obs.I 1) ];
  check bool "events recorded" true (Obs.events () <> []);
  Obs.reset ();
  Alcotest.(check (list (pair string int))) "counters cleared" [] (Obs.counters_alist ());
  check int "histograms cleared" 0 (List.length (Obs.histograms_alist ()));
  check int "span stats cleared" 0 (List.length (Obs.spans_alist ()));
  check int "trace events cleared" 0 (List.length (Obs.trace_events ()));
  check int "event ring cleared" 0 (List.length (Obs.events ()));
  check int "emission counter cleared" 0 (Obs.events_emitted ());
  Obs.disable ()

(* ------------------------------------------------------------------ *)
(* Span nesting and timing monotonicity                                *)
(* ------------------------------------------------------------------ *)

let busy_work () =
  (* enough work for strictly positive wall time at us resolution *)
  let acc = ref 0.0 in
  for i = 1 to 20_000 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  !acc

let test_span_nesting () =
  Obs.reset ();
  Obs.enable ();
  let r =
    Obs.span "outer" (fun () ->
        let a = Obs.span "inner1" (fun () -> busy_work ()) in
        let b = Obs.span "inner2" (fun () -> busy_work ()) in
        a +. b)
  in
  Obs.disable ();
  check bool "result threaded through" true (r > 0.0);
  check int "outer called once" 1 (Obs.span_calls "outer");
  check int "inner1 called once" 1 (Obs.span_calls "inner1");
  check int "inner2 called once" 1 (Obs.span_calls "inner2");
  let outer = Obs.span_total_s "outer" in
  let inner = Obs.span_total_s "inner1" +. Obs.span_total_s "inner2" in
  check bool "durations non-negative" true (outer >= 0.0 && inner >= 0.0);
  (* the outer interval contains both inner intervals; allow clock
     granularity slack *)
  check bool "outer >= sum of nested inners" true (outer >= inner -. 1e-5)

let test_span_exception () =
  Obs.reset ();
  Obs.enable ();
  (try Obs.span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  Obs.disable ();
  check int "span closed on exception" 1 (Obs.span_calls "boom")

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let record_sample_data () =
  Obs.reset ();
  Obs.enable ();
  ignore
    (Obs.span "phase.a" (fun () ->
         ignore (Obs.span "phase.a.sub" (fun () -> busy_work ()));
         busy_work ()));
  ignore (Obs.span "phase.b" (fun () -> busy_work ()));
  Obs.count "some.counter";
  Obs.add "some.counter" 9;
  Obs.observe "some.hist" 5.0;
  Obs.disable ()

let test_chrome_trace_json () =
  let open Json_util.Json in
  record_sample_data ();
  let j =
    match parse (Obs.chrome_trace ()) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "invalid trace JSON: %s" msg
  in
  match member "traceEvents" j with
  | Some (Arr events) ->
      let phases =
        List.filter_map
          (fun e -> match member "ph" e with Some (Str p) -> Some (p, e) | _ -> None)
          events
      in
      check int "all events carry a phase" (List.length events)
        (List.length phases);
      let xs = List.filter (fun (p, _) -> p = "X") phases in
      (* complete events only: no unbalanced B/E pairs possible *)
      check bool "no B/E events (X only)" true
        (List.for_all (fun (p, _) -> p = "X" || p = "M" || p = "C") phases);
      check int "one X event per completed span" 3 (List.length xs);
      List.iter
        (fun (_, e) ->
          let num k =
            match member k e with
            | Some (Num f) -> f
            | _ -> Alcotest.failf "X event missing numeric %s" k
          in
          check bool "ts >= 0" true (num "ts" >= 0.0);
          check bool "dur >= 0" true (num "dur" >= 0.0))
        xs;
      (* the nested span lies within its parent's interval *)
      let interval name =
        let ev =
          List.find
            (fun (_, e) -> member "name" e = Some (Str name))
            xs
        in
        match (member "ts" (snd ev), member "dur" (snd ev)) with
        | Some (Num ts), Some (Num dur) -> (ts, ts +. dur)
        | _ -> Alcotest.failf "span %s lacks ts/dur" name
      in
      let a0, a1 = interval "phase.a" in
      let s0, s1 = interval "phase.a.sub" in
      check bool "nested span contained in parent" true
        (s0 >= a0 -. 1.0 && s1 <= a1 +. 1.0)
  | _ -> Alcotest.fail "traceEvents array missing"

let test_stats_table () =
  record_sample_data ();
  let table = Obs.stats_table () in
  let contains needle =
    let nh = String.length table and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub table i nn = needle || go (i + 1)) in
    go 0
  in
  check bool "table lists spans" true (contains "phase.a");
  check bool "table lists counters" true (contains "some.counter");
  check bool "table lists histograms" true (contains "some.hist")

(* ------------------------------------------------------------------ *)
(* JSON parser and printer                                             *)
(* ------------------------------------------------------------------ *)

let test_json_value_roundtrip () =
  let open Json_util.Json in
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
  let open Json_util.Json in
  List.iter
    (fun s ->
      match parse s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    [ "{"; "{\"a\":}"; "[1,]"; "tru"; "\"unterminated"; "{} trailing"; "" ]

let () =
  Harness.run "obs"
    [ ( "modes",
        [ Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop ] );
      ( "counters",
        [ Alcotest.test_case "accumulate and reset" `Quick test_counters;
          Alcotest.test_case "histograms" `Quick test_histograms
        ] );
      ( "domain-safety",
        [ Alcotest.test_case "4 domains x 10k exact" `Quick
            test_concurrent_counters_exact;
          Alcotest.test_case "reset clears everything" `Quick
            test_reset_clears_everything
        ] );
      ( "spans",
        [ Alcotest.test_case "nesting and monotonicity" `Quick test_span_nesting;
          Alcotest.test_case "closed on exception" `Quick test_span_exception
        ] );
      ( "exporters",
        [ Alcotest.test_case "chrome trace well-formed" `Quick
            test_chrome_trace_json;
          Alcotest.test_case "stats table" `Quick test_stats_table
        ] );
      ( "json",
        [ Alcotest.test_case "value round-trip" `Quick test_json_value_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors
        ] )
    ]
