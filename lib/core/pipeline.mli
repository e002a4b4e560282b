(** End-to-end compilation pipeline: dependence analysis, start-up
    conservative fusion, Algorithm 1 (tile shapes), Algorithms 2-3
    (post-tiling fusion), producing a schedule tree.

    Also provides the baseline tiling-after-fusion flow used by the
    compared heuristics (minfuse/smartfuse/maxfuse/hybridfuse). *)

type target = Cpu | Gpu | Npu

val parallelism_cap : target -> int
(** 1 for CPUs (OpenMP), 2 for GPUs (blocks x threads), 2 for the NPU
    (Section III-C of the paper). *)

type compiled = {
  prog : Prog.t;
  deps : Deps.t list;
  spaces : Spaces.t list;
  plan : Post_tiling.plan;
  tree : Schedule_tree.t;
  startup : Fusion.result;
  search_steps : int;
}

val run :
  ?startup:Fusion.heuristic -> ?tile_size:int ->
  ?tile_sizes_for:(Spaces.t -> int array) -> ?fuse_reductions:bool ->
  ?fusable:(Spaces.t -> bool) -> ?recompute_limit:float -> target:target ->
  Prog.t -> compiled
(** The paper's flow. [startup] defaults to [Smartfuse], which at our
    statement granularity corresponds to the paper's nest-level
    conservative start-up (our IR splits imperfect nests into consecutive
    perfect nests). [tile_size] is the default edge for every band
    dimension (32) unless [tile_sizes_for] is given. *)

type baseline = {
  b_prog : Prog.t;
  b_deps : Deps.t list;  (** the dependences the fusion heuristic ran on *)
  b_result : Fusion.result;
  b_tree : Schedule_tree.t;
}

val run_heuristic :
  ?tile_size:int -> ?max_steps:int -> ?fuse_reductions:bool -> target:target ->
  Fusion.heuristic -> Prog.t -> baseline
(** Conventional tiling-after-fusion with the given heuristic:
    rectangular tiling applied to every permutable fusion group. *)
