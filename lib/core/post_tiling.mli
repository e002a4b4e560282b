(** Algorithms 2 and 3 of the paper: post-tiling fusion on schedule
    trees, generalized to multiple live-out computation spaces.

    A {!plan} records, for every computation space, whether it is tiled
    as a root (live-out spaces, plus intermediates that could not be
    fused anywhere and are recursively treated as live-out), or fused
    into one or more roots through extension schedules. Shared producers
    feeding several roots are fused only when their per-root instance
    sets are disjoint (no redundant computation, Fig. 6); otherwise they
    are un-fused, cascading to any extension derived through them. *)

type root = {
  tiling : Tile_shapes.tiling;
  fused_ids : int list;  (** spaces fused into this root, topological order *)
}

type plan = {
  roots : root list;  (** in topological order of their live-out space *)
  skipped : int list;  (** spaces whose original subtree is marked "skipped" *)
  residual : (int * string list) list;
      (** partially fused spaces and the statements that remain in their
          original nest (producers of dynamically guarded statements) *)
  standalone : int list;
      (** non-tilable spaces scheduled as-is, without tiling or fusion *)
}

val plan :
  ?fusable:(Spaces.t -> bool) -> ?recompute_limit:float -> Prog.t ->
  spaces:Spaces.t list -> tile_sizes_for:(Spaces.t -> int array) ->
  parallelism_cap:int -> plan
(** [fusable] excludes spaces from extension-based fusion (used to model
    Halide's manual schedules, which fix the compute_at decisions). *)

val to_tree : Prog.t -> spaces:Spaces.t list -> plan -> Schedule_tree.t
(** Algorithm 2: build the tiled-and-fused schedule tree (Fig. 5), with
    tile bands split from point bands, extension + sequence + filter
    nodes for fused intermediates, "skipped" marks on their original
    subtrees, and "kernel" marks on root tile bands. *)
