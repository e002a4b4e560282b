(* Tests for the lib/obs observability layer: span nesting and timing
   monotonicity, counter accumulation/reset, disabled-mode no-op
   behaviour, exact totals under concurrent domains, atomic reset, and
   well-formedness of the Chrome trace / stats JSON. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser (validation + field access); no external deps.  *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
              Buffer.add_char b '?';
              advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done;
              Buffer.add_char b '?'
          | _ -> fail "bad escape");
          go ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' ->
        pos := !pos + 4;
        Bool true
    | Some 'f' ->
        pos := !pos + 5;
        Bool false
    | Some 'n' ->
        pos := !pos + 4;
        Null
    | Some ('0' .. '9' | '-') -> parse_number ()
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

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
  Events.emit "ev" [ ("k", Events.I 1) ];
  check bool "events recorded" true (Events.recorded () <> []);
  Obs.reset ();
  Alcotest.(check (list (pair string int))) "counters cleared" [] (Obs.counters_alist ());
  check int "histograms cleared" 0 (List.length (Obs.histograms_alist ()));
  check int "span stats cleared" 0 (List.length (Obs.spans_alist ()));
  check int "trace events cleared" 0 (List.length (Obs.trace_events ()));
  check int "event ring cleared" 0 (List.length (Events.recorded ()));
  check int "emission counter cleared" 0 (Events.emitted ());
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
  record_sample_data ();
  let trace = Obs.chrome_trace () in
  let j =
    try parse_json trace
    with Bad_json msg -> Alcotest.failf "invalid trace JSON: %s" msg
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

let test_stats_json () =
  record_sample_data ();
  let j =
    try parse_json (Obs.stats_json ())
    with Bad_json msg -> Alcotest.failf "invalid stats JSON: %s" msg
  in
  (match member "counters" j with
  | Some (Obj fields) ->
      check bool "counter exported" true
        (List.assoc_opt "some.counter" fields = Some (Num 10.0))
  | _ -> Alcotest.fail "counters object missing");
  (match member "spans" j with
  | Some (Obj fields) ->
      check bool "span exported" true (List.mem_assoc "phase.a" fields)
  | _ -> Alcotest.fail "spans object missing");
  match member "histograms" j with
  | Some (Obj fields) -> check bool "histogram exported" true (List.mem_assoc "some.hist" fields)
  | _ -> Alcotest.fail "histograms object missing"

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
          Alcotest.test_case "stats json well-formed" `Quick test_stats_json;
          Alcotest.test_case "stats table" `Quick test_stats_table
        ] )
    ]
