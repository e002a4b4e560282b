(** Fourier-Motzkin elimination with integer-exactness certification.

    All functions operate on conjunctions of {!Cstr.t} over a flat variable
    space of fixed width. Elimination zeroes the column of the eliminated
    variable but keeps the constraint width unchanged; the caller drops the
    column when removing the dimension from a space.

    Exactness: eliminating a variable is integer-exact when every
    lower/upper bound pair has a unit coefficient on one side, or when the
    real and dark shadows of the pair coincide after normalization (this
    covers the tiling pattern [T*o <= i < T*o + T]). [Inexact] is raised
    when a required elimination cannot be certified, rather than silently
    over-approximating. *)

exception Inexact of string

exception Infeasible
(** Raised internally by some simplifications; public API returns options
    or booleans instead. *)

val false_cstr : int -> Cstr.t
(** A canonical unsatisfiable constraint of the given width ([0 >= 1]). *)

val dedup : Cstr.t list -> Cstr.t list option
(** Cheap syntactic simplification: normalize every constraint, drop
    trivially-true ones and duplicates, keep the tightest of parallel
    inequalities. [None] when a constraint is trivially false or two
    constraints are directly contradictory. The result is in canonical
    order ({!Cstr.compare}: equalities first, then lexicographic), so
    it is independent of the input order. *)

val canonical : nvars:int -> Cstr.t list -> Cstr.t list
(** {!dedup} with contradictions represented as [[false_cstr nvars]]:
    the canonical form used at {!Bset.make}/{!Bmap.make} construction
    and as the hash-consing key of the memo caches ({!Fm_cache}). *)

val box_trivially_empty : nvars:int -> Cstr.t list -> bool
(** Cheap sound emptiness certificate: the per-variable bounds read off
    the single-variable constraints alone contradict ([true] implies
    the system is empty; [false] decides nothing). No elimination. *)

val eliminate : exact:bool -> var:int -> Cstr.t list -> Cstr.t list
(** Existentially project out variable [var]. With [~exact:true], raise
    {!Inexact} when integer exactness cannot be certified; with
    [~exact:false] return the (possibly over-approximate) real shadow. *)

val eliminate_many : exact:bool -> vars:int list -> Cstr.t list -> Cstr.t list

val is_empty : nvars:int -> Cstr.t list -> bool
(** Integer emptiness. When an elimination step cannot be certified exact
    the decision falls back to enumerating the rational relaxation box;
    {!Inexact} is then only raised for unbounded systems. *)

val real_shadow_empty : nvars:int -> Cstr.t list -> bool
(** Rational emptiness certificate: eliminate every variable with the
    over-approximating real shadow ([~exact:false]) and look for a
    contradiction in the residue. [true] proves the system has no
    integer point; [false] decides nothing (it may still be integer
    empty, e.g. [2x = 2y + 1]). Never enumerates, so it stays cheap on
    wide systems where {!is_empty} would fall back to a bounded box.
    Memoized on the list as given ({!Fm_cache}). *)

val sample : nvars:int -> Cstr.t list -> int array option
(** An integer point of the system, or [None] if empty. On the exact
    path the point is the lexicographic minimum over bounded dimensions;
    otherwise the same enumeration fallback as {!is_empty} applies. *)

val iter_points_by_enum : nvars:int -> Cstr.t list -> (int array -> unit) -> unit
(** Enumerate every integer point (bounded systems only; the callback
    argument is reused across calls). Complete but potentially slow;
    used as a fallback by counting operations. Bounds the variables of
    the rational relaxation in index order and raises {!Inexact} at the
    first unbounded one, before bounding the rest or visiting a point. *)

val bounds_for : var:int -> Cstr.t list -> (int * Cstr.t) list * (int * Cstr.t) list
(** [(lowers, uppers)] for [var]: a lower entry [(a, c)] has
    [c.coef.(var) = a > 0] (reading [a*x >= -rest]); an upper entry
    [(b, c)] has [c.coef.(var) = -b < 0] (reading [b*x <= rest]).
    Equalities appear on both sides. *)

val remove_redundant : nvars:int -> Cstr.t list -> Cstr.t list
(** Feasibility-based redundancy removal: drop every inequality implied by
    the others. Quadratic in the number of constraints; used to simplify
    code-generation guards. *)

val implies : nvars:int -> Cstr.t list -> Cstr.t -> bool
(** [implies sys c] holds when every integer point of [sys] satisfies [c]. *)
