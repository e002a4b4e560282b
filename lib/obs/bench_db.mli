(** [BENCH_<label>.json] snapshot databases and the metric-by-metric
    regression diff behind [bench/main.exe regress].

    A database is a labelled, timestamped list of {!Snapshot.t} (one per
    workload x flow). {!diff} pairs two databases by workload x flow,
    flattens each snapshot into named integer metrics, and compares
    every one exactly:

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

type t = { label : string; created : string; snapshots : Snapshot.t list }

val schema_version : int
(** Version of the database file format. {!load} accepts no other. *)

val make : label:string -> Snapshot.t list -> t
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
