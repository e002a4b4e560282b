(** Random pipeline generator for differential testing.

    Generates small but structurally diverse programs — random DAGs of
    pointwise, stencil, down-sampling, up-sampling and reduction stages
    over 1D/2D arrays — used by the fuzzing suite to check that every
    compilation flow (all heuristics, the PolyMage/Halide strategy
    models and the paper's post-tiling fusion) computes the same
    live-out values as the untransformed program. *)

type config = {
  max_stages : int;  (** upper bound on generated stages (>= 2) *)
  max_extent : int;  (** array extents drawn from [6, max_extent] *)
  allow_reductions : bool;
  allow_sampling : bool;  (** down/up-sampling (floor-division) stages *)
  two_d : bool;  (** 2D arrays (otherwise 1D) *)
}

val default_config : config

(** {2 Pipeline specs}

    The generator is split into decision making ([spec_of_seed]) and
    deterministic lowering ([build_spec]); [generate] composes them.
    The spec is the unit the fuzz shrinker minimizes: stages can be
    dropped and extents/radii reduced while [build_spec] re-lowers the
    result to a real program for the failure predicate. *)

type stage_kind =
  | Pointwise of string  (** second source array *)
  | Stencil of int  (** radius *)
  | Down of int  (** alignment *)
  | Up
  | Reduce of int  (** radius *)

type stage = { sg_id : int; sg_kind : stage_kind; sg_src : string }
(** Stage [sg_id] writes array ["A<id>"] via statement ["s<id>"],
    reading [sg_src] (and the second source of a pointwise stage). *)

type spec = {
  sp_name : string;
  sp_nd : int;  (** 1 or 2 *)
  sp_input : int;  (** input extent, uniform across dims *)
  sp_stages : stage list;  (** the last stage's array is live-out *)
}

val spec_of_seed : config -> seed:int -> spec
(** Every random decision of the generator, recorded. *)

val build_spec : spec -> Prog.t
(** Deterministic lowering; raises [Invalid_argument] on an infeasible
    spec (see {!spec_valid}). *)

val spec_valid : spec -> bool
(** Non-empty, every stage source exists earlier in the chain, and all
    derived extents stay positive. *)

val spec_extents : spec -> (string * int) list option
(** Derived per-array uniform extents, or [None] when infeasible. *)

val spec_to_ocaml : spec -> string
(** OCaml source form of the spec, for self-contained repro files. *)

val generate : config -> seed:int -> Prog.t
(** [build_spec (spec_of_seed cfg ~seed)]. Deterministic in [seed]. The
    final stage's array is live-out; every stage reads one or two
    previously generated arrays with random in-bounds offsets. *)

val describe : Prog.t -> string
(** One-line structural summary (for failure messages). *)
