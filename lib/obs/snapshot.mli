(** Perf snapshots: one typed record per {e workload x flow}, with
    dependency-free JSON (de)serialization.

    A snapshot is an exact fingerprint of the compiler: every field is
    a deterministic count. It holds per-pass span call counts and every
    obs counter (from {!Obs}), the simulated LRU cache hits/misses and
    DRAM accesses, polyhedral footprint traffic volumes with their
    per-array attribution, and generated-AST size statistics. Wall time
    is not recorded; perf/ measures it. Machine-model and AST numbers
    are computed by the collector ([bench/main.exe snapshot]) and
    passed in; only {!capture} reads live {!Obs} state, keeping this
    module at the bottom of the dependency graph. *)

module Json = Json_util.Json

type cache_level = { cl_name : string; cl_hits : int; cl_misses : int }

type traffic = {
  tr_read_bytes : int;  (** off-chip bytes read (per footprint model) *)
  tr_write_bytes : int;  (** off-chip bytes written back *)
  tr_staged_bytes : int;  (** max on-chip bytes staged per tile *)
}

type ast_stats = { ast_loops : int; ast_kernels : int; ast_nodes : int }

type t = {
  workload : string;
  flow : string;
  span_calls : (string * int) list;  (** per-pass call counts, sorted by name *)
  counters : (string * int) list;  (** all obs counters, sorted by name *)
  cache_levels : cache_level list;
  dram_accesses : int;
  traffic : traffic;
  ast : ast_stats;
  attribution : (string * int * int) list;
      (** per-array [(name, read_bytes, write_bytes)] polyhedral
          traffic; components sum to [traffic] exactly *)
}

val capture :
  workload:string ->
  flow:string ->
  cache_levels:cache_level list ->
  dram_accesses:int ->
  traffic:traffic ->
  ast:ast_stats ->
  attribution:(string * int * int) list ->
  t
(** Build a snapshot from the current {!Obs} state (spans and counters
    recorded since the last [Obs.reset]) plus the supplied machine-model
    and AST metrics. Call while observability is still enabled. *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result

val to_string : t -> string

val of_string : string -> (t, string) result
