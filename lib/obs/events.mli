(** Structured event log: typed, ring-buffered records that capture
    {e decisions} (fusion accept/reject, tile-shape choice, post-tiling
    rewrites) and {e samples} (runtime tile timelines) rather than
    aggregate counters.

    Events carry a name, a category, a timestamp on the {!Obs} trace
    clock, an optional duration, and a payload of typed key/values.
    Recording is gated on [Obs.is_enabled] and bounded by a ring
    buffer, so instrumented paths are safe to leave in hot code. The
    ring is guarded by a mutex, so concurrent domains (the tuner's
    parallel candidate evaluation, the tile-graph runtime) can emit
    safely.

    Exporters: JSONL (one event per line, round-trippable with
    {!of_jsonl}) and a Chrome trace that merges structured events with
    the {!Obs} span intervals in timestamp order. *)

(** Payload value: string, int, float or bool (an alias of
    {!Json_util.value}). Ints and floats stay distinct through a JSONL
    round-trip. *)
type value = Json_util.value = S of string | I of int | F of float | B of bool

type t = {
  seq : int;  (** global emission index; counts events later dropped *)
  ts_s : float;  (** seconds since the [Obs.reset] epoch *)
  dur_s : float;  (** 0 for instantaneous events *)
  cat : string;  (** category, e.g. ["fusion"], ["runtime"] *)
  name : string;  (** dotted event name, e.g. ["fusion.reject"] *)
  args : (string * value) list;
}

(** {1 Lifecycle} *)

val reset : unit -> unit
(** Drop all recorded events and the emission counter. Capacity is
    kept. Also runs automatically as part of [Obs.reset] (registered
    via [Obs.on_reset]), atomically with the Obs registries. *)

val set_capacity : int -> unit
(** Resize the ring buffer (clamped to >= 1). Discards recorded events
    and resets the emission counter. Default capacity: 65536. *)

(** {1 Recording} *)

val emit :
  ?ts_s:float -> ?dur_s:float -> ?cat:string -> string -> (string * value) list -> unit
(** [emit name args] records an event stamped [Obs.elapsed_s ()] (or
    the explicit [ts_s]). No-op while [Obs] is disabled. When the ring
    is full the oldest event is dropped. *)

(** {1 Inspection} *)

val recorded : unit -> t list
(** Retained events, oldest first. *)

val emitted : unit -> int
(** Total events emitted since the last reset, including dropped. *)

val dropped : unit -> int
(** Events lost to ring-buffer overflow. *)

val find : t -> string -> value option
(** Payload lookup by key. *)

val value_to_string : value -> string
(** Human-readable rendering (no quotes around strings). *)

(** {1 Exporters} *)

val to_jsonl : unit -> string
(** One JSON object per line:
    [{"seq":..,"ts":..,"dur":..,"cat":..,"name":..,"args":{..}}]. *)

val of_jsonl : string -> (t list, string) result
(** Parse [to_jsonl] output back into events. Int/float payload values
    survive the round trip exactly. *)

val chrome_trace : unit -> string
(** Chrome trace_event JSON merging [Obs] span intervals (tid 1) with
    structured events (tid 2, instant ["i"] or complete ["X"] when a
    duration is present), in non-decreasing timestamp order, plus the
    final [Obs] counters ["C"] event. *)

val write_chrome_trace : string -> unit
