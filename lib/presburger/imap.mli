(** Unions of basic maps, possibly over different tuple pairs (isl
    "union map"). *)

type t

val empty : t

val of_bmap : Bmap.t -> t

val of_bmaps : Bmap.t list -> t

val pieces : t -> Bmap.t list

val union : t -> t -> t

val union_all : t list -> t

val subtract : t -> t -> t

val is_empty : t -> bool

val is_subset : t -> t -> bool

val coalesce : t -> t

val hull_compress : t -> t
(** Merge all pieces over the same tuple pair into their simple hull
    (sound over-approximation, exact for convex unions). *)

val range : t -> Iset.t

val reverse : t -> t

val apply_range_approx : t -> t -> t
(** Composition with per-piece rational fallback (see
    {!Bmap.apply_range_approx}). *)

val apply_set : Iset.t -> t -> Iset.t

val intersect_domain : t -> Iset.t -> t

val intersect_range : t -> Iset.t -> t

val lex_lt : Space.set_space -> t
(** Strict lexicographic order on a single tuple space. *)

val lex_lt_first : Space.set_space -> int -> t
(** Lexicographic order restricted to the first [k] dimensions (equality
    on the earlier ones, strict on one of the first [k]). *)

val bind_params : t -> (string * int) list -> t

val card : t -> int

val to_string : t -> string
