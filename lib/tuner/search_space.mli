(** Candidate enumeration for the autotuner: the joint space of
    {e tile sizes per band dimension} (power-of-two ladders),
    {e fusion heuristic} (minfuse/smartfuse/maxfuse/ours) and
    {e post-tiling knobs} (reduction fusion, recompute limit).

    Candidates are pruned by a footprint bound before any compilation:
    a candidate whose estimated per-tile staging requirement exceeds
    the modeled scratchpad is never evaluated. The estimate is the
    clamped tile volume times the element size times the number of
    stageable (intermediate) arrays — the same first-order model the
    pipeline's advisory tile-shape trace uses — so it scales with the
    quantity {!Footprints.staged_bytes} measures exactly after
    compilation. *)

type flow = Minfuse | Smartfuse | Maxfuse | Ours

val flow_name : flow -> string

val flow_of_string : string -> flow option

val all_flows : flow list

type candidate = {
  cd_flow : flow;
  cd_tiles : int array;
      (** per band dimension; heuristic flows use [cd_tiles.(0)]
          uniformly (their tiling is rectangular with one edge) *)
  cd_fuse_reductions : bool;  (** start-up fusion knob *)
  cd_recompute_limit : float;
      (** post-tiling knob (Algorithm 1's tolerated recomputation
          ratio); only meaningful for the [Ours] flow *)
}

val candidate_name : candidate -> string
(** Stable compact id, e.g. ["ours/32x32/fr1/rl4"]. *)

val candidate_to_json : candidate -> Json_util.Json.t

val candidate_of_json : Json_util.Json.t -> (candidate, string) result

type t = {
  dims : int;  (** tile-vector length: deepest statement domain, capped *)
  ladder : int list;  (** power-of-two tile edges, ascending *)
  recompute_ladder : float list;  (** recompute-limit values for [Ours] *)
  flows : flow list;
  scratchpad_bytes : int;  (** staging budget for the footprint bound *)
  max_extent : int;  (** largest concrete array extent (clamps tiles) *)
  stageable_arrays : int;  (** intermediate arrays, >= 1 for the bound *)
}

val make :
  ?ladder:int list -> ?recompute_ladder:float list -> ?flows:flow list ->
  ?scratchpad_bytes:int -> Prog.t -> t
(** Derive a space from a program. Defaults: ladder [8..128], recompute
    ladder [2; 4; 8], all four flows, 128 KiB scratchpad. Elements are
    {!Interp.elem_bytes} wide. *)

val default_candidate : t -> candidate
(** The pipeline's own defaults: [Ours], every tile edge 32 (clamped
    into the ladder's range), reduction fusion on, recompute limit 4 —
    the configuration every other flow in the tree compiles with. *)

val footprint_estimate : t -> int array -> int
(** Estimated staged bytes per tile for a tile-size vector: the product
    of extent-clamped tile edges times {!Interp.elem_bytes} times
    [stageable_arrays]. *)

val fits : t -> candidate -> bool
(** The footprint bound: [footprint_estimate <= scratchpad_bytes].
    Candidates of heuristic flows are bounded too (the bound models the
    on-chip budget a tile of that shape would need to stage its
    working set, whether or not the flow stages anything). *)

val enumerate : t -> candidate list * int
(** All candidates passing {!fits}, deterministic order, the default
    candidate first; also returns how many candidates the footprint
    bound pruned. Heuristic flows enumerate uniform tile vectors only
    (their single tile edge), [Ours] enumerates the full cartesian
    ladder over [dims] dimensions times the post-tiling knobs. *)

val neighbors : t -> candidate -> candidate list
(** Coordinate-descent moves from a candidate: step one tile dimension
    up/down the ladder, switch the flow, toggle reduction fusion, step
    the recompute limit — one axis at a time. Pruned by {!fits};
    deterministic order; never contains the candidate itself. *)

val signature : t -> string
(** Canonical one-line description of the space and its cost-model
    constants (part of the tuning-database key). *)
