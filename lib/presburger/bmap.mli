(** Basic maps: conjunctions of affine constraints over
    [params; in_dims; out_dims]. Quantifier-free, like {!Bset}. *)

type t = private { space : Space.map_space; cstrs : Cstr.t list }

val make : Space.map_space -> Cstr.t list -> t
(** Constraints are canonicalized at construction, exactly as in
    {!Bset.make}. *)

val empty_map : Space.map_space -> t

val n_params : t -> int

val n_in : t -> int

val n_out : t -> int

val width : t -> int

val space : t -> Space.map_space

val add_cstrs : t -> Cstr.t list -> t

val align_params : t -> string array -> t

val unify_params : t -> t -> t * t

val is_empty : t -> bool

val is_subset : t -> t -> bool

val intersect : t -> t -> t

val subtract : t -> t -> t list

val intersect_domain : t -> Bset.t -> t

val intersect_range : t -> Bset.t -> t

val reverse : t -> t

val domain : t -> Bset.t
(** Exact projection of the output dimensions. *)

val range : t -> Bset.t

val range_approx : t -> Bset.t
(** Over-approximating variant of {!range} (rational-shadow fallback);
    never raises {!Fm.Inexact}. *)

val domain_approx : t -> Bset.t

val apply_range : t -> t -> t
(** [apply_range r s = { i -> k : exists j, i->j in r, j->k in s }]; the
    range tuple of [r] must match the domain tuple of [s]. *)

val apply_range_approx : t -> t -> t
(** Like {!apply_range} with a rational-shadow fallback when the middle
    dimensions cannot be eliminated exactly (e.g. the parity constraints
    of down/up-sampling accesses). The result is an over-approximation;
    Algorithm 1 uses it when composing footprints, which can only
    enlarge (never corrupt) the fused instance sets. *)

val apply_set : Bset.t -> t -> Bset.t
(** Image of a set under a map. *)

val from_affs :
  ?params:string list -> in_tuple:string -> in_dims:string list ->
  out_tuple:string -> (string * Aff.t) list -> t
(** Functional map defined by one affine expression per output dimension
    (name, expression over the input dims). *)

val domain_map_cstrs : t -> Cstr.t list
(** The constraints as seen from the flattened set view (for advanced
    clients such as code generation). *)

val to_set_view : t -> Bset.t
(** Flatten to a set over [in_dims @ out_dims] with tuple
    ["in_tuple>out_tuple"] (mechanical; used to reuse set algorithms). *)

val of_set_view : Space.map_space -> Bset.t -> t

val fix_in_dim : t -> int -> int -> t

val bind_params : t -> (string * int) list -> t

val simple_hull : t -> t -> t
(** Constraint-wise union hull (isl's simple hull): a sound
    over-approximation of the union of two maps over the same space,
    exact when that union is convex. *)

val to_string : t -> string

val body_string : t -> string
(** The piece body without braces or parameter prefix
    ([S[i] -> A[x] : ...]); used by {!Imap.to_string}. *)
