(** [memcomp explain]: one-stop report tying the scheduler's decision
    trace to measured memory-hierarchy behavior.

    {!collect} compiles a workload with [Obs] decision events enabled
    (fusion accept/reject, tile-shape candidates, post-tiling
    rewrites), profiles the compiled AST through the sequential
    interpreter with the {!Memprof} hook (reuse-distance histograms,
    per-array / per-statement attribution), computes the polyhedral
    per-array traffic attribution, and executes the tile graph on the
    parallel runtime for per-tile timelines. The result renders as
    markdown ({!to_markdown}) or JSON ({!to_json_string}). *)

type t = {
  ex_workload : string;
  ex_flow : string;
  ex_tile : int;
  ex_jobs : int;
  ex_compile_s : float;
  ex_events : Obs.event list;
      (** every structured event recorded during collection, oldest
          first: compile-time decisions plus runtime.tile samples *)
  ex_attribution : (string * Footprints.traffic) list option;
      (** polyhedral per-array traffic; [None] for the naive flow
          (no cluster summary) *)
  ex_traffic : Footprints.traffic option;
  ex_prof : Memprof.t;
  ex_metrics : Executor.metrics;
  ex_wall_s : float;
}

val collect :
  ?tile:int ->
  ?jobs:int ->
  workload:string ->
  make:(Prog.t -> Exp_util.version) ->
  Prog.t ->
  t
(** Resets and enables [Obs], then compiles, profiles and executes.
    [make] builds the version under [Obs] instrumentation (e.g.
    [Exp_util.ours ~tile ~target:Cpu]). *)

val to_markdown : t -> string

val to_json : t -> Json_util.Json.t

val to_json_string : t -> string
