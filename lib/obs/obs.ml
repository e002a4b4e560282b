(* Compiler-wide observability: hierarchical timed spans, monotonic
   counters and summary histograms, with three exporters (human stats
   table, machine JSON, Chrome trace_event JSON).

   Everything is off by default: each entry point starts with a single
   flag load and branch, so instrumented hot paths (FM elimination,
   cache probes, ...) pay essentially nothing when observability is
   disabled.

   Domain safety: all registries (counters, span stats, histograms and
   the span-event ring) live behind one mutex, so work running
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

type event = {
  ev_name : string;
  ev_start_s : float;  (* relative to the epoch set by [reset] *)
  ev_dur_s : float;
  ev_depth : int;
}

(* One mutex guards every registry below. Lock order: this mutex may be
   held while reset hooks run (so hooks must not call back into Obs),
   and is never taken while another observability lock is held. *)
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

(* Completed spans in completion order, kept in a bounded ring: once
   full, the oldest interval is dropped so a very long run keeps its
   newest spans instead of growing without bound. *)
let events : event Queue.t = Queue.create ()

let max_events = 1_000_000

(* Span nesting depth is domain-local: concurrent domains nest their
   own spans without seeing each other's depth. *)
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let now () = Unix.gettimeofday ()

let epoch = ref (now ())

(* Reset hooks let sibling modules (Events) clear their buffers inside
   the same critical section, so a reset racing with a recording domain
   cannot leave spans from before it next to events from after it.
   Hooks must not call back into Obs. *)
let reset_hooks : (unit -> unit) list ref = ref []

let on_reset f = reset_hooks := f :: !reset_hooks

let reset () =
  with_lock (fun () ->
      Hashtbl.reset counters;
      Hashtbl.reset span_stats;
      Hashtbl.reset histograms;
      Queue.clear events;
      epoch := now ();
      List.iter (fun f -> f ()) !reset_hooks);
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
      Queue.push
        { ev_name = name;
          ev_start_s = start_abs -. !epoch;
          ev_dur_s = dur;
          ev_depth = depth
        }
        events;
      if Queue.length events > max_events then ignore (Queue.pop events))

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

let recorded_events () =
  with_lock (fun () -> Queue.fold (fun acc e -> e :: acc) [] events)
  |> List.rev

let trace_events () =
  List.map
    (fun e -> (e.ev_name, e.ev_start_s, e.ev_dur_s, e.ev_depth))
    (recorded_events ())

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

let escape_json = Json_util.escape

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let stats_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"spans\":{";
  List.iteri
    (fun i (name, (calls, total, mx)) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":{\"calls\":%d,\"total_s\":%s,\"max_s\":%s}"
           (escape_json name) calls (json_float total) (json_float mx)))
    (spans_alist ());
  Buffer.add_string b "},\"counters\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" (escape_json name) v))
    (counters_alist ());
  Buffer.add_string b "},\"histograms\":{";
  List.iteri
    (fun i (name, (count, sum, mn, mx)) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\"%s\":{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s}"
           (escape_json name) count (json_float sum) (json_float mn)
           (json_float mx)))
    (histograms_alist ());
  Buffer.add_string b "}}";
  Buffer.contents b

(* Chrome trace_event format: complete ("X") events with microsecond
   timestamps, loadable in about://tracing or https://ui.perfetto.dev.
   Counters ride along as one final "C" event so they are visible in the
   trace viewer too. *)
let chrome_trace () =
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"traceEvents\":[";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"memcomp\"}}";
  let last_ts = ref 0.0 in
  List.iter
    (fun e ->
      let ts = e.ev_start_s *. 1e6 in
      if ts +. (e.ev_dur_s *. 1e6) > !last_ts then
        last_ts := ts +. (e.ev_dur_s *. 1e6);
      Buffer.add_string b
        (Printf.sprintf
           ",{\"name\":\"%s\",\"cat\":\"pass\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d}}"
           (escape_json e.ev_name) ts (e.ev_dur_s *. 1e6) e.ev_depth))
    (recorded_events ());
  let cs = counters_alist () in
  if cs <> [] then begin
    Buffer.add_string b
      (Printf.sprintf
         ",{\"name\":\"counters\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"args\":{"
         !last_ts);
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%d" (escape_json name) v))
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
