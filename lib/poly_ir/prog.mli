(** Polyhedral program IR.

    A program is a textual sequence of statements; each statement is a
    perfect loop nest over a basic-set iteration domain, writing exactly
    one array element per instance and reading a fixed list of elements.
    This is the "multiple consecutive loop nests" setting of the paper:
    imperfect nests (e.g. an initialization statement inside a reduction
    nest) are modelled as separate consecutive nests, which preserves
    semantics because the split statements never interleave on the same
    element between loop iterations. *)

open Presburger

type array_decl = {
  array_name : string;
  extents : Aff.t list;  (** per-dimension extent, affine over the parameters *)
}

(** One output-dimension expression of an access: [floor(aff / div)];
    [div = 1] for ordinary affine accesses. *)
type index = { aff : Aff.t; div : int }

type access = {
  array : string;
  indices : index list;
  rel : Bmap.t;  (** statement instance -> array element, derived from [indices] *)
}

type stmt = {
  stmt_name : string;
  nest : string;
      (** original imperfect-nest tag: statements sharing it came from
          one loop nest and are kept together by the start-up fusion *)
  domain : Bset.t;  (** tuple name equals [stmt_name] *)
  write : access;
  reads : access list;
  compute : float array -> float;
      (** value to store, given the values of [reads] in order *)
  ops : int;  (** arithmetic operations per instance, for cost models *)
  guard : (int array -> bool) option;
      (** dynamic execution condition (opaque to the polyhedral analysis),
          used for while-loop style dynamic counted loops *)
  reduction_dims : int;
      (** trailing domain dimensions that are reduction (non-parallel)
          dimensions of this statement in isolation *)
}

type t = {
  prog_name : string;
  params : (string * int) list;  (** symbolic parameters with bound values *)
  arrays : array_decl list;
  stmts : stmt list;  (** textual order *)
  live_out : string list;  (** arrays read after the program ends *)
}

val index : ?div:int -> Aff.t -> index

val mk_access :
  ?params:string list -> stmt_name:string -> dims:string list -> array:string ->
  index list -> access
(** Build an access and its relation. Floor-divided indices produce the
    relational form [div*g <= aff <= div*g + div - 1]. *)

val mk_stmt :
  ?guard:(int array -> bool) -> ?reduction_dims:int -> ?nest:string ->
  name:string -> domain:Bset.t -> write:access -> reads:access list ->
  compute:(float array -> float) -> ops:int -> unit -> stmt

val make :
  name:string -> params:(string * int) list -> arrays:array_decl list ->
  stmts:stmt list -> live_out:string list -> t

val find_stmt : t -> string -> stmt

val find_array : t -> string -> array_decl

val array_extent : t -> string -> int list
(** Concrete extents under the program's parameter binding. *)

val param_names : t -> string list

val stmt_index : t -> string -> int
(** Position in textual order. *)

val domain_card : t -> stmt -> int
(** Instances of a statement under the parameter binding. *)

val writers_of : t -> string -> stmt list

val intermediate_arrays : t -> string list
(** Arrays written by the program that are not live-out. *)

val eval_aff_with_params : (string * int) list -> Aff.t -> int array -> int
(** Value of an affine form at a point under a parameter binding;
    raises [Invalid_argument] on an unbound parameter. *)

val validate : t -> unit
(** Check structural invariants (tuple names, access arities, array
    names); raises [Invalid_argument] with a description on violation. *)
