(** Schedule trees (Grosser, Verdoolaege, Cohen; TOPLAS 2015), extended
    with the paper's use of extension nodes for post-tiling fusion.

    Node types implemented: domain, band, sequence, filter, mark,
    extension, leaf. A band carries a partial schedule (a union map from
    statement instances to the band's schedule dimensions) plus the
    [permutable] flag and per-dimension [coincident] flags the paper uses
    to reason about tilability and parallelism. *)

open Presburger

type band = {
  partial : Imap.t;
      (** statement instances -> schedule dims; one piece per statement *)
  n_members : int;
  permutable : bool;
  coincident : bool array;  (** length [n_members] *)
}

type t =
  | Domain of Iset.t * t
  | Band of band * t
  | Sequence of t list
  | Filter of Iset.t * t
  | Mark of string * t
  | Extension of Imap.t * t
      (** the map sends outer schedule dimensions to additional statement
          instances scheduled under this subtree *)
  | Leaf

val mk_band :
  partial:Imap.t -> permutable:bool -> coincident:bool array -> band

val floor_div_map :
  tuple_in:string -> dims:string array -> tuple_out:string ->
  tile_sizes:int array -> Bmap.t
(** [{ [b] -> [o] : T_d * o_d <= b_d <= T_d * o_d + T_d - 1 }]. *)

val tile_band : band -> tile_sizes:int array -> prefix:string -> band * band
(** Split a band into a tile band (iterating among tiles, schedule dims
    renamed with [prefix]) and a point band (the original). *)

val domain_of : t -> Iset.t
(** The domain node's set (raises if the root is not a domain node). *)

val filters_under : t -> string list
(** All statement tuple names mentioned by filters/domain below a node. *)

val map_tree : (t -> t option) -> t -> t
(** Bottom-up rewriting: the function may replace any node ([None] keeps
    the node, with already-rewritten children). *)

val to_string : t -> string
(** Indented multi-line rendering for documentation and debugging. *)
