(* Compiler-wide observability: hierarchical timed spans, monotonic
   counters, summary histograms and typed decision events, with two
   exporters (human stats table, Chrome trace_event JSON).

   Everything is off by default: each entry point starts with a single
   flag load and branch, so instrumented hot paths (FM elimination,
   cache probes, ...) pay essentially nothing when observability is
   disabled.

   Domain safety: all registries (counters, span stats, histograms and
   the span and event rings) live behind one mutex, so work running
   concurrently across OCaml 5 domains — the tuner's parallel candidate
   evaluation, the tile-graph runtime's workers — accumulates exact
   totals. Span nesting depth is domain-local (DLS), so spans nest per
   domain.

   Counter naming scheme: dotted lowercase [layer.entity[.metric]],
   e.g. "fm.eliminate", "bmap.apply_range", "cache.L1.hits",
   "pipeline.search_steps". Span names follow the same scheme and
   nest naturally ("pipeline.compile" > "pipeline.deps" >
   "deps.compute" > ...). *)

let enabled = ref false

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type span_stat = {
  mutable calls : int;
  mutable total_s : float;
  mutable max_s : float;
}

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type value = Json_util.value = S of string | I of int | F of float | B of bool

type event = {
  seq : int;
  ts_s : float;
  dur_s : float;
  cat : string;
  name : string;
  args : (string * value) list;
}

type interval = {
  iv_name : string;
  iv_start_s : float;  (* relative to the epoch set by [reset] *)
  iv_dur_s : float;
  iv_depth : int;
}

(* One mutex guards every registry below. *)
let mu = Mutex.create ()

let with_lock f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let counters : (string, int ref) Hashtbl.t = Hashtbl.create 64

let span_stats : (string, span_stat) Hashtbl.t = Hashtbl.create 64

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 64

(* Completed spans and decision events, each in a bounded ring: once
   full, the oldest entry is dropped so a very long run keeps its
   newest ones instead of growing without bound. The rings are
   separate, so a flood of runtime.tile events never pushes out the
   spans that per-layer time ledgers sum. [emitted] counts every
   decision event since the last reset, dropped ones included. *)
let intervals : interval Queue.t = Queue.create ()

let max_intervals = 1_000_000

let events_q : event Queue.t = Queue.create ()

let max_events = 65_536

let emitted = ref 0

(* Under the lock: append, dropping the oldest entry once over [cap]. *)
let push_bounded q cap x =
  Queue.push x q;
  if Queue.length q > cap then ignore (Queue.pop q)

(* Span nesting depth is domain-local: concurrent domains nest their
   own spans without seeing each other's depth. *)
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let now () = Unix.gettimeofday ()

let epoch = ref (now ())

let reset () =
  with_lock (fun () ->
      Hashtbl.reset counters;
      Hashtbl.reset span_stats;
      Hashtbl.reset histograms;
      Queue.clear intervals;
      Queue.clear events_q;
      emitted := 0;
      epoch := now ());
  Domain.DLS.get depth_key := 0

let elapsed_s () = now () -. !epoch

let enable () = enabled := true

let disable () = enabled := false

let is_enabled () = !enabled

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let add name n =
  if !enabled then
    with_lock (fun () ->
        match Hashtbl.find_opt counters name with
        | Some r -> r := !r + n
        | None -> Hashtbl.add counters name (ref n))

let count name = add name 1

let counter_value name =
  with_lock (fun () ->
      match Hashtbl.find_opt counters name with Some r -> !r | None -> 0)

let counters_alist () =
  with_lock (fun () ->
      Hashtbl.fold (fun name r acc -> (name, !r) :: acc) counters [])
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let observe name v =
  if !enabled then
    with_lock (fun () ->
        let h =
          match Hashtbl.find_opt histograms name with
          | Some h -> h
          | None ->
              let h =
                { h_count = 0;
                  h_sum = 0.0;
                  h_min = infinity;
                  h_max = neg_infinity
                }
              in
              Hashtbl.add histograms name h;
              h
        in
        h.h_count <- h.h_count + 1;
        h.h_sum <- h.h_sum +. v;
        if v < h.h_min then h.h_min <- v;
        if v > h.h_max then h.h_max <- v)

let observe_int name v = observe name (float_of_int v)

let histogram_summary name =
  with_lock (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> Some (h.h_count, h.h_sum, h.h_min, h.h_max)
      | None -> None)

let histograms_alist () =
  with_lock (fun () ->
      Hashtbl.fold
        (fun name h acc -> (name, (h.h_count, h.h_sum, h.h_min, h.h_max)) :: acc)
        histograms [])
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let record_span name start_abs dur ~depth =
  with_lock (fun () ->
      (match Hashtbl.find_opt span_stats name with
      | Some s ->
          s.calls <- s.calls + 1;
          s.total_s <- s.total_s +. dur;
          if dur > s.max_s then s.max_s <- dur
      | None ->
          Hashtbl.add span_stats name { calls = 1; total_s = dur; max_s = dur });
      push_bounded intervals max_intervals
        { iv_name = name;
          iv_start_s = start_abs -. !epoch;
          iv_dur_s = dur;
          iv_depth = depth
        })

let span name f =
  if not !enabled then f ()
  else begin
    let d = Domain.DLS.get depth_key in
    let start = now () in
    incr d;
    let finish () =
      decr d;
      record_span name start (now () -. start) ~depth:!d
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let span_calls name =
  with_lock (fun () ->
      match Hashtbl.find_opt span_stats name with Some s -> s.calls | None -> 0)

let span_total_s name =
  with_lock (fun () ->
      match Hashtbl.find_opt span_stats name with
      | Some s -> s.total_s
      | None -> 0.0)

let spans_alist () =
  with_lock (fun () ->
      Hashtbl.fold
        (fun name s acc -> (name, (s.calls, s.total_s, s.max_s)) :: acc)
        span_stats [])
  |> List.sort (fun (na, (_, ta, _)) (nb, (_, tb, _)) ->
         match compare tb ta with 0 -> compare na nb | c -> c)

let contents q = with_lock (fun () -> List.of_seq (Queue.to_seq q))

let trace_events () =
  List.map
    (fun i -> (i.iv_name, i.iv_start_s, i.iv_dur_s, i.iv_depth))
    (contents intervals)

(* ------------------------------------------------------------------ *)
(* Decision events                                                     *)
(* ------------------------------------------------------------------ *)

let event ?ts_s ?(dur_s = 0.0) ?(cat = "event") name args =
  if !enabled then begin
    let ts_s = match ts_s with Some t -> t | None -> elapsed_s () in
    with_lock (fun () ->
        push_bounded events_q max_events
          { seq = !emitted; ts_s; dur_s; cat; name; args };
        incr emitted)
  end

let events () = contents events_q

let events_emitted () = with_lock (fun () -> !emitted)

let events_dropped () = with_lock (fun () -> !emitted - Queue.length events_q)

let arg e key = List.assoc_opt key e.args

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let stats_table () =
  let b = Buffer.create 4096 in
  let spans = spans_alist () in
  if spans <> [] then begin
    Buffer.add_string b "== spans (wall time per pass) ==\n";
    let w =
      List.fold_left (fun acc (n, _) -> max acc (String.length n)) 4 spans
    in
    Buffer.add_string b
      (Printf.sprintf "  %-*s %10s %12s %12s %12s\n" w "name" "calls"
         "total ms" "mean us" "max us");
    List.iter
      (fun (name, (calls, total, mx)) ->
        Buffer.add_string b
          (Printf.sprintf "  %-*s %10d %12.3f %12.1f %12.1f\n" w name calls
             (total *. 1e3)
             (total /. float_of_int (max 1 calls) *. 1e6)
             (mx *. 1e6)))
      spans
  end;
  let cs = counters_alist () in
  if cs <> [] then begin
    Buffer.add_string b "== counters ==\n";
    let w = List.fold_left (fun acc (n, _) -> max acc (String.length n)) 4 cs in
    List.iter
      (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-*s %12d\n" w name v))
      cs
  end;
  let hs = histograms_alist () in
  if hs <> [] then begin
    Buffer.add_string b "== histograms ==\n";
    let w = List.fold_left (fun acc (n, _) -> max acc (String.length n)) 4 hs in
    Buffer.add_string b
      (Printf.sprintf "  %-*s %10s %12s %10s %10s %10s\n" w "name" "count" "sum"
         "min" "mean" "max");
    List.iter
      (fun (name, (count, sum, mn, mx)) ->
        Buffer.add_string b
          (Printf.sprintf "  %-*s %10d %12.0f %10.1f %10.1f %10.1f\n" w name
             count sum mn
             (sum /. float_of_int (max 1 count))
             mx))
      hs
  end;
  if spans = [] && cs = [] && hs = [] then
    Buffer.add_string b "(no observability data recorded)\n";
  Buffer.contents b

(* Chrome trace_event format with microsecond timestamps, loadable in
   about://tracing or https://ui.perfetto.dev. Spans are complete ("X")
   events on tid 1; decision events go on tid 2, as instants ("i"), or
   complete when they carry a duration. Everything after the metadata
   event is sorted by timestamp (stably: spans before events on a tie),
   and the counters ride along as one final "C" event. *)
type row = Span of interval | Ev of event

let chrome_trace () =
  let rows =
    List.map (fun i -> Span i) (contents intervals)
    @ List.map (fun e -> Ev e) (events ())
  in
  let ts_us = function Span i -> i.iv_start_s *. 1e6 | Ev e -> e.ts_s *. 1e6 in
  let rows = List.stable_sort (fun a b -> compare (ts_us a) (ts_us b)) rows in
  let esc = Json_util.escape in
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"traceEvents\":[";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"memcomp\"}}";
  List.iter
    (fun row ->
      let ts = ts_us row in
      match row with
      | Span i ->
          Printf.bprintf b
            ",{\"name\":\"%s\",\"cat\":\"pass\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d}}"
            (esc i.iv_name) ts (i.iv_dur_s *. 1e6) i.iv_depth
      | Ev e ->
          if e.dur_s > 0.0 then
            Printf.bprintf b
              ",{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
              (esc e.name) (esc e.cat) ts (e.dur_s *. 1e6)
          else
            Printf.bprintf b
              ",{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":%.3f,\"s\":\"t\",\"args\":{"
              (esc e.name) (esc e.cat) ts;
          List.iteri
            (fun k (key, v) ->
              if k > 0 then Buffer.add_char b ',';
              Printf.bprintf b "\"%s\":%s" (esc key) (Json_util.value_json v))
            e.args;
          Buffer.add_string b "}}")
    rows;
  let cs = counters_alist () in
  if cs <> [] then begin
    let last_ts = List.fold_left (fun acc r -> max acc (ts_us r)) 0.0 rows in
    Printf.bprintf b
      ",{\"name\":\"counters\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"args\":{"
      last_ts;
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char b ',';
        Printf.bprintf b "\"%s\":%d" (esc name) v)
      cs;
    Buffer.add_string b "}}"
  end;
  Buffer.add_string b "]}";
  Buffer.contents b

let write_chrome_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace ()))
