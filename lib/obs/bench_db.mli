(** [BENCH_<label>.json] snapshot databases and the metric-by-metric
    regression diff behind [bench/main.exe regress].

    A snapshot is an exact fingerprint of the compiler on one
    {e workload x flow}: one flat map from metric name to integer count.
    {!capture} adds every per-pass span call count and Obs counter; the
    collector ([bench/main.exe snapshot]) supplies the machine-model
    counts (simulated cache levels, footprint traffic and its per-array
    attribution, generated-AST sizes). Wall time is not recorded;
    perf/ measures it.

    A database is a labelled, timestamped list of snapshots. {!diff}
    pairs two databases by workload x flow and compares every metric
    exactly:

    - the compiler is deterministic, so any increase is a regression and
      any decrease an improvement. Intentional changes are absorbed by
      refreshing the baseline;
    - a workload x flow pair present in the base but missing from the
      candidate is a regression; a pair only in the candidate is
      reported as added but does not gate;
    - missing-metric direction is explicit: a metric present in the
      base but absent from the candidate is classified {!Removed} and
      fails the gate (lost coverage), and a metric only in the
      candidate is {!Added} and never gates. *)

type snapshot = {
  workload : string;
  flow : string;
  metrics : (string * int) list;  (** sorted by name *)
}

type t = { label : string; created : string; snapshots : snapshot list }

val schema_version : int
(** Version of the database file format. {!load} accepts no other. *)

val capture : workload:string -> flow:string -> (string * int) list -> snapshot
(** The given metrics plus [span.<name>.calls] and [counter.<name>] for
    every span and counter {!Obs} recorded since the last [Obs.reset].
    Call while observability is still enabled. *)

val make : label:string -> snapshot list -> t
(** Stamp a database with the current UTC time. *)

val save : string -> t -> (unit, string) result
(** [Error] names the path. *)

val load : string -> (t, string) result

(** {1 Diff} *)

type classification = Improved | Unchanged | Regressed | Added | Removed

type delta = {
  d_workload : string;
  d_flow : string;
  d_metric : string;
  d_base : int;
  d_cand : int;
  d_class : classification;
}

val classify_counter : base:int -> cand:int -> classification

val diff : base:t -> cand:t -> delta list

val regressions : delta list -> delta list
(** The gating deltas: everything classified {!Regressed} or
    {!Removed}. *)

val gate : delta list -> int
(** [0] when {!regressions} is empty, [1] otherwise — the exit-code
    contract of [bench/main.exe regress]. *)

(** {1 Rendering} *)

val summary_table : delta list -> string
(** Human-readable diff: one row per non-unchanged metric plus a
    summary count line. *)

val deltas_json : delta list -> string
(** Machine-readable diff (summary counts and non-unchanged deltas)
    for the [--json] flag. *)
