(** Tile-graph extraction: split a generated AST at the point-band
    boundary ({!Ast.Point}) into per-tile work items, and derive
    inter-tile dependence edges from interval analysis of array
    accesses gated by the program's presburger dependence relations.

    The graph is a DAG whose edges always go from a lower item id to a
    higher one (item ids are the sequential execution order), so
    executing items in id order is always a valid schedule. *)

type itv = int * int

exception Unanalyzable of string

val eval_itv :
  params:(string * int) list -> env:(string * itv) list -> Ast.expr -> itv
(** Interval evaluation of an AST expression; raises {!Unanalyzable}
    on unbound variables or parameters. *)

type box = itv array
(** Per-array-dimension inclusive index bounds. *)

type item = {
  id : int;  (** also the sequential execution order *)
  body : Ast.t;
  env : (string * int) list;  (** enumerated outer loop bindings *)
  kernel : int;  (** enclosing kernel id, -1 outside any kernel *)
  reads : (string, box) Hashtbl.t;
  writes : (string, box) Hashtbl.t;
  stmts : string list;
  opaque : bool;  (** accesses could not be bounded *)
}

type t = {
  items : item array;
  succs : int list array;
  preds : int array;  (** predecessor counts, aligned with [items] *)
  n_edges : int;
}

val n_items : t -> int

val overlap : box -> box -> bool

val contains_point : Ast.t -> bool

val extract : ?max_tiles:int -> Prog.t -> deps:Deps.t list -> Ast.t -> t
(** Extract the tile graph of an AST. Loops above a point marker are
    enumerated while the item count stays under [max_tiles] (a soft
    cap, default 1024); beyond it whole subtrees coarsen into single
    items. ASTs without point markers fall back to enumerating up to
    two outer loop levels. Items whose accesses cannot be bounded
    become opaque and are ordered against every other item. Timed as
    the [runtime.extract] span. *)

val levels : t -> int array
(** Wavefront level of each item: longest edge path from a root. *)
