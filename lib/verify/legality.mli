(** Independent static legality checker for final schedule trees.

    Re-derives the statement-instance execution order induced by a
    schedule tree (sequence branches, bands, point bands, extension
    nodes, "skipped" marks) directly from [sched_tree] and
    [presburger], sharing no code with [lib/scheduler]'s legality
    predicates, and discharges every memory-based dependence of the
    program by emptiness tests: an arc is accepted only when some
    source occurrence provably executes it early enough at some shared
    block level of the schedule-time prefix (block level 0 is the
    classic whole-program reversed-arc test; the tile-band prefix
    level is what legitimizes post-tiling fusion's recomputation).

    Over-approximation is only ever applied where it is conservative
    (it can produce a spurious violation, never hide a real one);
    source-side coverage claims require integer-exact projections and
    otherwise claim nothing (counted in [rep_inexact]). Dynamic guards
    are opaque and assumed to execute, exactly as the scheduler and
    code generator treat them. *)

exception Structural of string
(** A malformed tree (e.g. an extension node referencing an unknown
    schedule tuple, or unbound parameters). *)

type violation = {
  vl_kind : string;  (** "raw" | "war" | "waw" | "liveout" | "structural" *)
  vl_src : string;
  vl_dst : string;
  vl_array : string;
  vl_path : string;  (** schedule path of the violated occurrence *)
  vl_witness : (int array * int array) option;
      (** an uncovered source/destination instance pair *)
  vl_detail : string;
}

type report = {
  rep_occurrences : int;  (** (leaf, statement) occurrences collected *)
  rep_deps_checked : int;
  rep_violations : violation list;
  rep_inexact : int;
      (** coverage candidates abandoned for lack of an exact projection *)
}

val check : Prog.t -> deps:Deps.t list -> Schedule_tree.t -> report
(** Verify one final schedule tree against the program's dependences
    [deps] and live-out coverage. [deps] must be [Deps.compute p] (a
    caller checking many trees of one program computes it once), never
    the list a compile carried along. An empty [rep_violations] means
    every dependence arc was proven covered and every live-out writer
    instance executes. *)

val violation_string : violation -> string

val naive_tree : Prog.t -> Schedule_tree.t
(** Textual-order reference schedule (one filter + identity band per
    statement, under a sequence), built from [sched_tree] primitives
    only; used as the independent reference for the naive flow and by
    the mutation tests. *)
