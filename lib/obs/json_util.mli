(** Shared JSON primitives for the observability layer: the single
    string escaper used by every JSON producer in the tree, the typed
    payload value of {!Obs} decision events, the minimal JSON document
    parser/printer, and whole-file read/write whose errors name the
    path. *)

val escape : string -> string
(** Escape a string for embedding in a JSON string literal. *)

(** Payload value: string, int, float or bool. Floats always print
    with a ['.'] or an exponent ([F 5.] prints as ["5.0"]), so a reader
    of the JSON can tell them from ints. *)
type value = S of string | I of int | F of float | B of bool

val value_json : value -> string
(** JSON rendering of a payload value: floats print exactly
    ([%.17g]), and nan/inf render as quoted strings. *)

val value_to_string : value -> string
(** Human-readable rendering (no quotes around strings). *)

(** Minimal JSON documents — parser and printer sufficient for the
    tuning database and the explain and tuning reports. Floats print
    with [%.17g] so every finite double round-trips exactly. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string

  val parse : string -> (t, string) result

  val member : string -> t -> t option
  (** Field access on [Obj]; [None] on other constructors. *)
end

val read_file : string -> (string, string) result
(** The whole file; [Error] names the path and the reason. *)

val write_json : string -> Json.t -> (unit, string) result
(** Write the document and a newline to the file; [Error] names the
    path and the reason. *)
