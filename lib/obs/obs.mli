(** Compiler-wide observability: hierarchical timed spans, monotonic
    counters and summary histograms, plus exporters (human-readable
    stats table, machine-readable JSON, Chrome trace_event JSON).

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
(** Drop all recorded spans, counters, histograms and trace events,
    restart the trace clock epoch, and run every hook registered with
    {!on_reset} — all inside one critical section, so a domain that is
    still recording never sees the registries half cleared. *)

val on_reset : (unit -> unit) -> unit
(** Register a hook run (inside the registry lock) at every {!reset}.
    Hooks must not call back into [Obs]. Used by {!Events} to clear its
    ring atomically with the registries here. *)

val elapsed_s : unit -> float
(** Seconds since the trace clock epoch set by [reset]. Timestamps on
    structured events (see {!Events}) use this clock so they line up
    with span intervals in a merged Chrome trace. *)

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
    every span. Consumed by {!Events.chrome_trace} to merge spans and
    structured events. *)

(** {1 Exporters} *)

val stats_table : unit -> string
(** Human-readable per-phase time / counter / histogram breakdown. *)

val stats_json : unit -> string
(** Machine-readable JSON:
    [{"spans": {...}, "counters": {...}, "histograms": {...}}]. *)

val chrome_trace : unit -> string
(** Chrome trace_event JSON (complete ["X"] events, plus counters as a
    single ["C"] event), loadable in about://tracing or Perfetto. *)

val write_chrome_trace : string -> unit
(** Write [chrome_trace ()] to a file. *)
