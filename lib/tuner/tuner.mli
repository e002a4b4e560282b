(** Model-guided autotuning: search the joint space of tile shapes,
    fusion heuristic and post-tiling knobs ({!Search_space}), scoring
    every candidate with the machine model ({!Evaluator}) and caching
    results in a content-addressed database ({!Tune_db}).

    Every strategy evaluates the pipeline's default configuration
    first, so the reported best is never worse than the default under
    the model; in addition, a candidate only becomes "best" when it
    does not model more DRAM traffic than the default — the search
    minimizes total cost (DRAM + staged bytes) within the region that
    does not regress off-chip traffic, the paper's primary metric.
    Every candidate passes the independent legality verifier before it
    is scored (illegal candidates are hard-rejected and counted). All
    strategies are deterministic: exhaustive and greedy by
    construction, random under a fixed [seed]. *)

type strategy = Exhaustive | Greedy | Random

val strategy_name : strategy -> string

val strategy_of_string : string -> strategy option

type result = {
  r_entry : Tune_db.entry;  (** the outcome (best, default, counts) *)
  r_cached : bool;  (** answered from the database, nothing evaluated *)
  r_space : int;  (** candidates surviving the footprint bound *)
}

val tune :
  ?strategy:strategy ->
  ?budget:int ->
  ?jobs:int ->
  ?seed:int ->
  ?space:Search_space.t ->
  ?db_path:string ->
  ?force:bool ->
  Prog.t ->
  (result, string) Stdlib.result
(** Tune one program for the CPU model. Defaults: [Greedy], budget 48
    evaluations, 1 job, seed 0, space derived by {!Search_space.make},
    no database. With [db_path], a stored entry under the same
    content-addressed key answers instantly unless [force] re-tunes
    (the fresh entry then replaces the stored one). [Error] when the
    database cannot be read or written, or when the default
    configuration itself fails to compile or verify, or is not
    evaluated because [budget] is below 1. *)

val report_markdown : result -> string
(** Human-readable tuning report: chosen vs default configuration,
    modeled cost deltas, reject counts and the search trajectory. *)

val report_json : result -> Json_util.Json.t
(** The same report as one JSON object (stable field names; used by
    [memcomp tune --json]). *)
