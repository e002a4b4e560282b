(* Decision-event tests: ring overflow accounting, merged Chrome-trace
   ordering, the end-to-end `memcomp explain` report on a registry
   workload (which must show at least one rejected fusion candidate
   with its reason), and the exact-sum law of the per-array traffic
   attribution. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

module Json = Json_util.Json

let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

let test_ring_overflow () =
  with_obs @@ fun () ->
  let capacity = 65_536 in
  for i = 0 to capacity + 5 do
    Obs.event "tick" [ ("i", Obs.I i) ]
  done;
  check int "emitted counts drops" (capacity + 6) (Obs.events_emitted ());
  check int "dropped = emitted - capacity" 6 (Obs.events_dropped ());
  let kept = Obs.events () in
  check int "ring keeps capacity events" capacity (List.length kept);
  (* the survivors are the newest, oldest first, with their seq *)
  check bool "survivors are the newest, in order" true
    (List.for_all Fun.id
       (List.mapi
          (fun k e -> Obs.arg e "i" = Some (Obs.I (6 + k)) && e.Obs.seq = 6 + k)
          kept))

let test_disabled_noop () =
  Obs.disable ();
  Obs.reset ();
  Obs.event "x" [];
  check int "no event recorded while disabled" 0 (Obs.events_emitted ());
  check int "nothing retained" 0 (List.length (Obs.events ()))

(* ------------------------------------------------------------------ *)
(* Merged Chrome trace                                                 *)
(* ------------------------------------------------------------------ *)

let test_chrome_merge_ordering () =
  with_obs @@ fun () ->
  ignore
    (Obs.span "compile" (fun () ->
         Obs.event ~cat:"fusion" "fusion.accept" [ ("prev", Obs.S "S0") ];
         Obs.event ~cat:"fusion" "fusion.reject"
           [ ("reason", Obs.S "no_legal_band") ];
         let acc = ref 0.0 in
         for i = 1 to 10_000 do
           acc := !acc +. sqrt (float_of_int i)
         done;
         !acc));
  Obs.event ~ts_s:1.0 ~dur_s:0.5 ~cat:"runtime" "runtime.tile"
    [ ("tile", Obs.I 0) ];
  let trace = Obs.chrome_trace () in
  match Json.parse trace with
  | Error msg -> Alcotest.failf "invalid merged trace JSON: %s" msg
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.Arr events) ->
          let ph e =
            match Json.member "ph" e with
            | Some (Json.Str p) -> p
            | _ -> Alcotest.fail "event without phase"
          in
          let num k e =
            match Json.member k e with
            | Some (Json.Num f) -> f
            | _ -> Alcotest.failf "event without numeric %s" k
          in
          let timed = List.filter (fun e -> ph e <> "M") events in
          (* the span, both instants, the timed tile event, the counters *)
          check bool "span X event present" true
            (List.exists
               (fun e ->
                 ph e = "X"
                 && Json.member "name" e
                    = Some (Json.Str "compile"))
               timed);
          check int "two instant decision events" 2
            (List.length (List.filter (fun e -> ph e = "i") timed));
          check bool "timed structured event is X" true
            (List.exists
               (fun e ->
                 ph e = "X"
                 && Json.member "name" e
                    = Some (Json.Str "runtime.tile"))
               timed);
          (* merged stream is sorted by timestamp *)
          let rec sorted = function
            | a :: (b :: _ as rest) -> num "ts" a <= num "ts" b && sorted rest
            | _ -> true
          in
          check bool "non-decreasing ts" true (sorted timed);
          (* decision instants fall inside the enclosing span interval *)
          let span =
            List.find
              (fun e ->
                ph e = "X"
                && Json.member "name" e
                   = Some (Json.Str "compile"))
              timed
          in
          let s0 = num "ts" span and s1 = num "ts" span +. num "dur" span in
          List.iter
            (fun e ->
              if ph e = "i" then
                check bool "instant inside its span" true
                  (num "ts" e >= s0 -. 1.0 && num "ts" e <= s1 +. 1.0))
            timed
      | _ -> Alcotest.fail "traceEvents array missing")

(* ------------------------------------------------------------------ *)
(* End-to-end: memcomp explain on conv2d                               *)
(* ------------------------------------------------------------------ *)

let collect_conv2d () =
  let e = Registry.find "conv2d" in
  let p = e.Registry.small () in
  Explain.collect ~tile:8 ~jobs:2 ~workload:"conv2d"
    ~make:(fun p -> Exp_util.ours ~tile:8 ~target:Core.Pipeline.Cpu p)
    p

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_explain_conv2d () =
  let ex = collect_conv2d () in
  Obs.disable ();
  let rejects =
    List.filter (fun e -> e.Obs.name = "fusion.reject") ex.Explain.ex_events
  in
  check bool "at least one rejected fusion candidate" true (rejects <> []);
  List.iter
    (fun e ->
      match Obs.arg e "reason" with
      | Some (Obs.S r) -> check bool "reject carries a reason" true (r <> "")
      | _ -> Alcotest.fail "fusion.reject without reason payload")
    rejects;
  check bool "tile-shape candidates recorded" true
    (List.exists
       (fun e -> e.Obs.name = "tile_shape.candidate")
       ex.Explain.ex_events);
  check bool "runtime timeline events recorded" true
    (List.exists (fun e -> e.Obs.name = "runtime.tile") ex.Explain.ex_events);
  let md = Explain.to_markdown ex in
  check bool "markdown names the failing predicate" true
    (contains md "no_legal_band");
  check bool "markdown has the attribution section" true
    (contains md "## Per-array traffic attribution");
  check bool "markdown has the reuse histogram" true
    (contains md "## Reuse-distance histogram");
  match Json.parse (Explain.to_json_string ex) with
  | Error msg -> Alcotest.failf "explain JSON invalid: %s" msg
  | Ok j ->
      check bool "json carries events" true
        (match Json.member "events" j with
        | Some (Json.Arr (_ :: _)) -> true
        | _ -> false);
      check bool "json carries attribution" true
        (match Json.member "attribution" j with
        | Some (Json.Arr (_ :: _)) -> true
        | _ -> false)

(* ------------------------------------------------------------------ *)
(* Attribution exact-sum law                                           *)
(* ------------------------------------------------------------------ *)

(* Per-array traffic is the primitive the totals are defined over: the
   per-array rows must sum to the cluster/program totals exactly, for
   both compilation flows. *)
let test_attribution_sums_exactly () =
  List.iter
    (fun name ->
      let e = Registry.find name in
      let p = e.Registry.small () in
      List.iter
        (fun (flow, v) ->
          let cs = Exp_util.clusters p v in
          let sum rows =
            List.fold_left
              (fun (r, w) (_, (t : Footprints.traffic)) ->
                (r + t.Footprints.read_bytes, w + t.Footprints.write_bytes))
              (0, 0) rows
          in
          (* program level *)
          let total = Footprints.program_traffic p cs in
          let r, w = sum (Footprints.program_traffic_by_array p cs) in
          check int
            (Printf.sprintf "%s/%s: read bytes sum exactly" name flow)
            total.Footprints.read_bytes r;
          check int
            (Printf.sprintf "%s/%s: write bytes sum exactly" name flow)
            total.Footprints.write_bytes w;
          (* cluster level *)
          List.iter
            (fun c ->
              let t = Footprints.cluster_traffic p c in
              let cr, cw = sum (Footprints.cluster_traffic_by_array p c) in
              check int "cluster read bytes sum exactly" t.Footprints.read_bytes cr;
              check int "cluster write bytes sum exactly" t.Footprints.write_bytes cw)
            cs)
        [ ("ours", Exp_util.ours ~tile:8 ~target:Core.Pipeline.Cpu p);
          ( "smartfuse",
            Exp_util.heuristic ~tile:8 ~target:Core.Pipeline.Cpu Fusion.Smartfuse
              p )
        ])
    [ "conv2d"; "harris" ]

(* The measured side obeys the same law: per-array and per-statement
   DRAM attribution sums to the sampling cache's own total, and the
   access counts to the profiler's. *)
let test_memprof_sums_exactly () =
  let e = Registry.find "conv2d" in
  let p = e.Registry.small () in
  let v = Exp_util.ours ~tile:8 ~target:Core.Pipeline.Cpu p in
  let mem = Interp.alloc p in
  Cpu_model.deterministic_fill ~seed:42 p mem;
  let prof = Memprof.create () in
  let (_ : Interp.stats) =
    Interp.run ~hook:(Memprof.hook prof) p v.Exp_util.ast mem
  in
  let sum_dram rows = List.fold_left (fun a (_, r) -> a + r.Memprof.dram) 0 rows in
  let sum_acc rows =
    List.fold_left (fun a (_, r) -> a + r.Memprof.accesses) 0 rows
  in
  let dram_total = Cache.dram_accesses (Memprof.cache prof) in
  check int "per-array DRAM sums to cache total" dram_total
    (sum_dram (Memprof.per_array prof));
  check int "per-stmt DRAM sums to cache total" dram_total
    (sum_dram (Memprof.per_stmt prof));
  check int "per-stmt accesses sum to trace length"
    (Memprof.total_accesses prof)
    (sum_acc (Memprof.per_stmt prof));
  (* histogram counts + cold accesses account for the whole trace *)
  let hist_total =
    List.fold_left (fun a (_, c) -> a + c) 0 (Memprof.reuse_histogram prof)
  in
  check int "histogram + cold covers every access"
    (Memprof.total_accesses prof)
    (hist_total + Memprof.cold_misses prof)

let () =
  Harness.run "events"
    [ ( "ring",
        [ Alcotest.test_case "overflow drops oldest" `Quick test_ring_overflow;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop
        ] );
      ( "chrome",
        [ Alcotest.test_case "merged trace ordering" `Quick
            test_chrome_merge_ordering
        ] );
      ( "explain",
        [ Alcotest.test_case "conv2d end-to-end" `Slow test_explain_conv2d ] );
      ( "attribution",
        [ Alcotest.test_case "polyhedral sums exactly" `Quick
            test_attribution_sums_exactly;
          Alcotest.test_case "measured sums exactly" `Quick
            test_memprof_sums_exactly
        ] )
    ]
