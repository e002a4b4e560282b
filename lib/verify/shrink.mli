(** Greedy minimizer for failing {!Random_pipeline} specs.

    Mutations tried per round (in order): drop a stage (later stages
    first, so dead suffixes unwind quickly), collapse 2D to 1D, shrink
    stencil/reduction radii and sampling alignment, merge a pointwise
    stage's sources, reduce the input extent. A mutation is kept only
    when the spec stays feasible and [predicate] still holds on it, so
    the result still reproduces the original failure. *)

type outcome = {
  shrunk : Random_pipeline.spec;
  evals : int;  (** predicate evaluations spent *)
  rounds : int;
}

val shrink :
  Random_pipeline.spec -> predicate:(Random_pipeline.spec -> bool) -> outcome
(** [predicate sp] must return [true] when the failure still reproduces
    on [Random_pipeline.build_spec sp]; exceptions count as [false].
    At most 400 predicate evaluations are spent — each one typically
    recompiles the program through a full flow. *)

val repro_ml : ?seed:int -> note:string -> Random_pipeline.spec -> string
(** Contents of a self-contained OCaml repro file for the spec. *)
