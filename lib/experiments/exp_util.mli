(** Shared plumbing for the experiment drivers (bench/main.ml): version
    compilation, profiling, table rendering. *)

type flavor =
  | Naive
  | Baseline of Core.Pipeline.baseline * int  (** tile size used *)
  | Ours of Core.Pipeline.compiled

type version = {
  ver_name : string;
  uid : int;
  ast : Ast.t;
  flavor : flavor;
  compile_s : float;  (** wall-clock of the compilation flow *)
  budget_exceeded : bool;
}

val naive : Prog.t -> version
(** Sequential, untiled, unfused (the PolyMage "naive" baseline and the
    PPCG input). *)

val heuristic :
  ?tile:int -> ?max_steps:int -> ?fuse_reductions:bool ->
  target:Core.Pipeline.target -> Fusion.heuristic -> Prog.t -> version

val ours :
  ?tile:int -> ?tile_sizes:int array -> ?startup:Fusion.heuristic ->
  ?fuse_reductions:bool -> ?recompute_limit:float ->
  target:Core.Pipeline.target -> Prog.t -> version

val polymage_version :
  ?tile:int -> ?tile_sizes:int array -> target:Core.Pipeline.target ->
  Prog.t -> version
(** Ours with the dilated (over-approximated) extension schedules. *)

val halide_version :
  ?tile:int -> ?tile_sizes:int array -> target:Core.Pipeline.target ->
  Prog.t -> version
(** The per-benchmark manual schedule from {!Competitors}. *)

val tree_of : Prog.t -> version -> Schedule_tree.t
(** The schedule tree the version's AST was generated from (recomputed
    for the naive flow, whose constructor discards it). *)

val deps_of : Prog.t -> version -> Deps.t list
(** The dependences the version was compiled against (recomputed for
    the naive flow), as the tile-graph runtime needs them. *)

val check_against : Prog.t -> version -> version -> bool
(** Semantic equivalence of live-out arrays (interpreter oracle). *)

val cpu_profile : Prog.t -> version -> Cpu_model.report
(** Trace-driven profile, cached per (program name, version name). *)

val cpu_time_ms : ?vectorize:bool -> Prog.t -> version -> threads:int -> float

val clusters : Prog.t -> version -> Footprints.cluster list
(** Polyhedral cluster summaries for the analytic models (not available
    for the naive version). *)

val gpu_time_ms : Prog.t -> version -> float

val print_table : header:string list -> string list list -> unit
(** Aligned plain-text table. *)

val section : string -> unit

val time_it : (unit -> 'a) -> 'a * float
