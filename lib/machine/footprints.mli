(** Polyhedral traffic/footprint accounting shared by the analytic GPU
    and NPU models and the tuner's scoring.

    A compiled program is summarized as a list of clusters (one per
    generated kernel): the statements it executes, the relation from
    statement instances to the tiles that execute them (so recomputation
    from overlapped tiling is counted), which arrays are staged in
    on-chip memory (fused intermediates) and how many tiles there are.
    A cluster holds relations, not counts: building one visits no
    instance, and {!stmt_instances} counts them only when a compute
    term asks.

    Traffic rules, per cluster and array:
    - reads of an array written by the same cluster are served on-chip;
    - reads of a staged (fused) array are served on-chip;
    - other reads cost one transaction per (tile, element) pair — the
      element is loaded once per tile that needs it (shared-memory /
      scratchpad staging granularity);
    - writes cost one transaction per element: every array a cluster
      writes and does not stage is written back. *)

open Presburger

type cluster = {
  stmts : string list;
  inst_tiles : (string * Imap.t) list;
      (** per statement: instances -> tile coordinates executing them;
          an instance mapped to several tiles is recomputed *)
  staged_arrays : string list;
  tile_count : int;
  parallel_tiles : bool;
      (** tiles can run concurrently (the outer band is coincident);
          serialized fusions (maxfuse fallback) occupy a single unit *)
}

type traffic = {
  read_bytes : int;
  write_bytes : int;
}

val clusters_of_compiled : Core.Pipeline.compiled -> cluster list

val clusters_of_baseline : tile_size:int -> Core.Pipeline.baseline -> cluster list

val stmt_instances : cluster -> (string * int) list
(** Executed instances per statement, in [inst_tiles] order,
    recomputation included: an instance counts once per tile that
    executes it. The model counts a statement's static domain, so a
    dynamic loop that exits early executes fewer. Counting visits every
    (instance, tile) pair, so call it only where the count is read. *)

val cluster_traffic : Prog.t -> cluster -> traffic
(** Off-chip traffic of one cluster under the rules above. *)

val cluster_traffic_by_array : Prog.t -> cluster -> (string * traffic) list
(** {!cluster_traffic} broken down by array (sorted by name). The
    per-array attribution is the primitive the totals are defined over,
    so its components sum to {!cluster_traffic} exactly. *)

val program_traffic_by_array : Prog.t -> cluster list -> (string * traffic) list
(** Per-array program traffic (sorted by name); sums component-wise to
    {!program_traffic} exactly. *)

val staged_bytes : Prog.t -> cluster -> int
(** On-chip bytes needed per tile for the staged arrays (maximum over
    tiles of the staged footprints). *)

val program_traffic : Prog.t -> cluster list -> traffic
(** Total off-chip traffic of a cluster list: the sum of
    {!cluster_traffic} over the clusters. *)

val max_staged_bytes : Prog.t -> cluster list -> int
(** Largest per-tile on-chip staging requirement over the clusters (the
    scratchpad high-water mark, a footprint-volume snapshot metric). *)
