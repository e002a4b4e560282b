(** Candidate evaluation for the autotuner.

    Each candidate is compiled through the full pipeline (the paper's
    flow for [Ours], tiling-after-fusion for the heuristic flows),
    checked by the independent static legality verifier
    ({!Legality.check}; any violation is a hard reject), and scored by
    the machine model: off-chip DRAM traffic and per-tile staged bytes
    from {!Footprints}, plus an estimated tile-level parallelism from
    the {!Tile_graph} wavefront levels of the generated AST.

    Evaluation of a candidate list can fan out across OCaml 5 domains
    (the [jobs] knob); each evaluation is pure and independent, so the
    result list is deterministic and order-preserving regardless of
    [jobs]. *)

type score = {
  sc_dram_bytes : int;  (** program off-chip traffic, read + write *)
  sc_staged_bytes : int;  (** scratchpad high-water mark per tile *)
  sc_tiles : int;  (** tile-graph items of the generated AST *)
  sc_wavefronts : int;  (** wavefront levels (critical path, tiles) *)
  sc_parallelism : float;  (** tiles / wavefronts: mean ready width *)
}

val cost : score -> float
(** The scalar objective: DRAM traffic plus staged bytes (bytes). *)

val compare_scores : score -> score -> int
(** Total order on scores: by {!cost}, then DRAM traffic, then staged
    bytes, then descending parallelism — so arg-min is deterministic. *)

val score_to_json : score -> Json_util.Json.t

val score_of_json : Json_util.Json.t -> (score, string) result

val version_of :
  target:Core.Pipeline.target -> Prog.t -> Search_space.candidate ->
  Exp_util.version
(** Compile one candidate through its flow, without verification or
    scoring (how a consumer applies a stored tuned configuration).
    {!evaluate} always compiles for [Core.Pipeline.Cpu]; the label stays
    here because consumers outside the tuner pass it. *)

type outcome =
  | Scored of score
  | Illegal of string  (** static legality violation (hard reject) *)
  | Failed of string  (** compilation raised *)

val evaluate :
  ?jobs:int -> Prog.t -> Search_space.candidate list ->
  (Search_space.candidate * outcome) list
(** Compile for the CPU, verify and score each candidate of a batch,
    preserving input order. The program's dependences are computed
    once for the batch. Never raises: a raising compilation is
    [Failed]. [jobs] > 1 fans the batch out over that many domains
    (worker-pool pattern: one atomic work index, domains drain it). *)
