(** Compiler-wide observability: hierarchical timed spans, monotonic
    counters, summary histograms and typed decision events, plus two
    exporters (human-readable stats table, Chrome trace_event JSON).

    Disabled by default; when disabled every entry point is a single
    flag check, so instrumentation in hot paths is essentially free.

    Domain-safe: all registries are guarded by one mutex, so work
    running concurrently across OCaml 5 domains (the tuner's parallel
    candidate evaluation, the tile-graph runtime's workers) accumulates
    exact totals. Span nesting depth is domain-local.

    Naming scheme: dotted lowercase [layer.entity[.metric]], e.g.
    ["fm.eliminate"], ["bmap.apply_range"], ["cache.L1.hits"],
    ["pipeline.search_steps"]. *)

(** {1 Lifecycle} *)

val enable : unit -> unit
(** Turn recording on. Does not clear previously recorded data. *)

val disable : unit -> unit
(** Turn recording off; recorded data is kept until [reset]. *)

val is_enabled : unit -> bool

val reset : unit -> unit
(** Drop all recorded spans, counters, histograms and decision events,
    zero the event emission count and restart the trace clock epoch,
    all inside one critical section, so a domain that is still
    recording never sees the registries half cleared. *)

val elapsed_s : unit -> float
(** Seconds since the trace clock epoch set by [reset]. Span intervals
    and decision events share this clock, so they line up in one
    Chrome trace. *)

(** {1 Recording} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a named timed span. Spans nest per
    domain: a span started inside another is recorded at depth+1 and
    contained within the parent's interval in the Chrome trace.
    Exceptions propagate; the span is still closed. When disabled this
    is exactly [f ()]. *)

val count : string -> unit
(** Increment a named monotonic counter by one. *)

val add : string -> int -> unit
(** Increment a named monotonic counter by [n]. *)

val observe : string -> float -> unit
(** Record a value into a named histogram, which keeps the count, sum,
    minimum and maximum of everything observed. *)

val observe_int : string -> int -> unit

(** {2 Decision events}

    Typed records of what the compiler decided (fusion accept/reject,
    tile-shape choice, post-tiling rewrites, tuner steps, verifier
    work per dependence) and of runtime samples (per-tile timelines),
    rather than aggregate counts. *)

(** Payload value: string, int, float or bool (an alias of
    {!Json_util.value}). *)
type value = Json_util.value = S of string | I of int | F of float | B of bool

type event = {
  seq : int;  (** emission index since [reset]; counts events later dropped *)
  ts_s : float;  (** seconds since the [reset] epoch *)
  dur_s : float;  (** 0 for instantaneous events *)
  cat : string;  (** category, e.g. ["fusion"], ["runtime"] *)
  name : string;  (** dotted event name, e.g. ["fusion.reject"] *)
  args : (string * value) list;
}

val event :
  ?ts_s:float -> ?dur_s:float -> ?cat:string -> string -> (string * value) list -> unit
(** [event name args] records a decision event stamped [elapsed_s ()]
    (or the explicit [ts_s]); [cat] defaults to ["event"]. No-op while
    disabled. The newest 65_536 events are kept; older ones are
    dropped. *)

(** {1 Inspection} *)

val counter_value : string -> int
(** Current value of a counter; 0 when never incremented. *)

val counters_alist : unit -> (string * int) list
(** All counters, sorted by name. *)

val span_calls : string -> int

val span_total_s : string -> float

val spans_alist : unit -> (string * (int * float * float)) list
(** All spans as [(name, (calls, total_s, max_s))], sorted by
    descending total time. *)

val histogram_summary : string -> (int * float * float * float) option
(** [(count, sum, min, max)] of a histogram, if it was ever observed. *)

val histograms_alist : unit -> (string * (int * float * float * float)) list

val trace_events : unit -> (string * float * float * int) list
(** Completed span intervals as [(name, start_s, dur_s, depth)] in
    completion order, with [start_s] relative to the epoch. The ring
    holds the newest 1_000_000 intervals; aggregate span stats count
    every span. Decision events are not included. *)

val events : unit -> event list
(** Retained decision events, oldest first. *)

val events_emitted : unit -> int
(** Decision events emitted since the last reset, dropped ones
    included. *)

val events_dropped : unit -> int
(** Decision events lost to ring overflow. *)

val arg : event -> string -> value option
(** Payload lookup by key. *)

(** {1 Exporters} *)

val stats_table : unit -> string
(** Human-readable per-phase time / counter / histogram breakdown. *)

val chrome_trace : unit -> string
(** Chrome trace_event JSON, loadable in about://tracing or Perfetto:
    span intervals as complete ["X"] events on tid 1, decision events
    on tid 2 (instant ["i"], or ["X"] when they have a duration), all
    in non-decreasing timestamp order, then the counters as one ["C"]
    event. *)

val write_chrome_trace : string -> unit
(** Write [chrome_trace ()] to a file. *)
