(** Parallel tile-graph execution runtime.

    Splits a generated AST at the point-band boundary into per-tile
    work items ({!Tile_graph}), derives inter-tile dependence edges
    from the program's presburger dependences, and executes ready
    tiles across OCaml 5 domains ({!Executor}). The sequential
    interpreter ({!Interp.run} over the same deterministic fill) is
    the semantic oracle: a correct graph makes the parallel result
    bit-identical, because every pair of conflicting tiles stays
    ordered by a sequence-order edge. *)

type result = {
  mem : Interp.memory;
  graph : Tile_graph.t;
  metrics : Executor.metrics;
  wall_s : float;  (** execution wall time (excluding extraction) *)
}

val run :
  ?jobs:int ->
  ?race_check:bool ->
  ?seed:int ->
  Prog.t -> deps:Deps.t list -> Ast.t -> result
(** Allocate memory, fill deterministically (same [seed] default as
    the machine models), extract the tile graph, execute it with
    {!Executor.run} on at most [jobs] workers (default 1; never more
    than there are tiles), and emit [runtime.*] observability counters
    (from the calling thread only; the executor itself never touches
    [Obs]). *)
