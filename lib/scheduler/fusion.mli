(** Pluto-lite polyhedral scheduler: SCC-based fusion with the four
    heuristics the paper compares against.

    Statements are aligned on their shared outer dimensions (prefix
    alignment plus per-statement constant shifts, found by solving
    difference constraints over the dependence distance bounds). A
    fusion group carries Pluto-style [permutable]/[coincident]
    information, which is what both the paper's algorithms and the
    machine models consume. *)

type heuristic = Minfuse | Smartfuse | Maxfuse | Hybridfuse

val heuristic_name : heuristic -> string

type group = {
  stmts : string list;  (** textual order *)
  band_dims : int;  (** shared outer dimensions *)
  shifts : (string * int array) list;  (** per statement, length [band_dims] *)
  permutable : bool;
  coincident : bool array;
  serialized : bool;
      (** maxfuse fallback: fused for locality but the shared band must
          execute sequentially (models the skewed code of Fig 1(c)) *)
}

type result = {
  groups : group list;  (** topological order *)
  search_steps : int;
      (** scheduling-search work performed (the compile-time proxy;
          wall-clock is also measured by the benches); maxfuse adds
          one step per shift vector it checks, however fast the check *)
  budget_exceeded : bool;
}

val n_parallel : group -> int
(** Leading coincident dimensions. *)

val schedule :
  ?max_steps:int -> ?fuse_reductions:bool -> Prog.t -> deps:Deps.t list ->
  target_parallelism:int -> heuristic -> result
(** [max_steps] bounds maxfuse's exhaustive shift search (default 2e6):
    it visits every shift vector in lexicographic order, without
    pruning, until one is valid or the budget runs out.
    [fuse_reductions:false] reproduces the isl smartfuse behaviour the
    paper observes on the NPU: groups carrying reductions are not fused
    with their consumers. One call computes each dependence piece's
    distance bound on a dimension at most once, when a candidate group
    first needs it, and shares it among all its candidates. *)

val group_of_stmts :
  ?band_dims:int -> Prog.t -> deps:Deps.t list -> string list -> group
(** Build a (possibly unfused) group for the given statements with shifts
    solved; [band_dims] defaults to the deepest shared nesting. Exposed
    for the core algorithms and tests. *)
