(** Basic sets: conjunctions of affine constraints over [params; dims].

    No existentially quantified dimensions exist in this library: every
    projection is performed exactly (or raises {!Fm.Inexact}), so basic
    sets stay quantifier-free. *)

type t = private { space : Space.set_space; cstrs : Cstr.t list }

val make : Space.set_space -> Cstr.t list -> t
(** Constraints are canonicalized at construction ({!Fm.canonical}:
    gcd-reduced, deduped, sorted, contradictions collapsed to the
    canonical false constraint), so structurally equal sets print
    identically and share Fm memo-cache keys. *)

val empty_set : Space.set_space -> t

val n_params : t -> int

val n_dims : t -> int

val width : t -> int
(** [n_params + n_dims], the constraint width. *)

val space : t -> Space.set_space

val tuple : t -> string

val align_params : t -> string array -> t
(** Re-express the set over the given parameter list, which must contain
    every parameter of the set. *)

val unify_params : t -> t -> t * t

val set_tuple : t -> string -> t

val is_empty : t -> bool

val is_subset : t -> t -> bool
(** [is_subset a b]: every point of [a] lies in [b] (both basic). *)

val intersect : t -> t -> t

val subtract : t -> t -> t list
(** Difference as a disjoint list of basic sets over [a]'s space. *)

val project_dims : t -> first:int -> count:int -> t
(** Exact existential projection; the dims disappear from the space.
    Raises {!Fm.Inexact} when the projection of the (single) basic set is
    not representable as one basic set. *)

val project_dims_approx : t -> first:int -> count:int -> t
(** Like {!project_dims} but falls back to the rational-shadow
    over-approximation instead of raising. Sound for conservative
    decisions (disjointness implies true disjointness) and for
    upper-bounding footprint volumes. *)

val bind_params : t -> (string * int) list -> t
(** Substitute concrete values for the listed parameters; the bound
    parameters disappear. Unlisted parameters remain. *)

val contains : t -> int array -> bool
(** Membership of a dims-length point; requires [n_params = 0]. *)

val sample : t -> int array option
(** A dims-length point, or [None]; requires [n_params = 0]. *)

val card : t -> int
(** Exact number of integer points; requires [n_params = 0] and a bounded
    set. Fast path for box-shaped sets, pruned enumeration otherwise. *)

val box_hull : t -> (int * int) array
(** Per-dimension [lo, hi] bounds of the smallest enclosing box; requires
    [n_params = 0] and boundedness. *)

val box_card : t -> int
(** Number of points of the enclosing box (the over-approximation used by
    the modelled PolyMage strategy). *)

val gist_simplify : t -> t
(** Remove redundant constraints (feasibility-based). *)

val to_string : t -> string

val body_string : t -> string
(** The piece body without braces or parameter prefix
    ([S[i, j] : ...]); used by {!Iset.to_string} to print unions in
    parser-compatible syntax. *)
