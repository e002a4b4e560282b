(** Pipeline builder: declarative construction of multi-stage image
    processing / linear algebra programs as {!Prog.t} values.

    Each stage writes one output array over a box domain (one dimension
    per output dimension); reductions add trailing reduction dimensions
    and are lowered to an initialization statement plus an update
    statement, the "consecutive perfect nests" form the rest of the
    system expects. *)

open Presburger

type t

val create : string -> params:(string * int) list -> t

val input : t -> string -> Aff.t list -> unit
(** Declare an input array (written by nobody). *)

val param_names : t -> string list

val stage :
  t -> name:string -> out:string -> extents:Aff.t list ->
  reads:(string * Prog.index list) list -> ?ops:int ->
  compute:(float array -> float) -> unit -> unit
(** Pointwise/stencil stage: domain = box [0, extent) per output
    dimension, write [out[d0]..[dn]]. Read indices are affine (or
    floor-divided) expressions over the stage dimensions. *)

val reduction :
  t -> name:string -> out:string -> extents:Aff.t list ->
  red_dims:(string * Aff.t) list ->
  reads:(string * Prog.index list) list -> ?ops:int -> ?init:float ->
  combine:(float array -> float) -> unit -> unit
(** Reduction stage: adds trailing reduction dimensions with the given
    extents. Lowered to [name_init] (writes [init]) and [name_upd]
    (reads the accumulator as its first read, then the given reads, and
    stores [combine [|acc; v1; ...|]]). *)

val stmt : t -> Prog.stmt -> unit
(** Escape hatch: append a hand-built statement. *)

val array : t -> string -> Aff.t list -> unit

val finish : t -> live_out:string list -> Prog.t
