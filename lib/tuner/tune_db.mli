(** Persistent tuning database: a versioned on-disk JSON map from
    {e tuning keys} to the best configuration found for them.

    A key is content-addressed: the MD5 digest of a canonical rendering
    of the program (name, bound parameters, array extents, statement
    domains/accesses/ops) combined with the search-space signature and
    the compilation target. Re-tuning an unchanged workload with an
    unchanged space hits the stored entry and answers instantly; any
    change to the program, the machine-model constants or the space
    produces a fresh key and re-tunes. *)

type entry = {
  en_workload : string;
  en_key : string;
  en_created : string;  (** UTC ISO-8601 *)
  en_strategy : string;
  en_seed : int;
  en_budget : int;  (** evaluation budget the search ran under *)
  en_best : Search_space.candidate;
  en_best_score : Evaluator.score;
  en_default : Search_space.candidate;
  en_default_score : Evaluator.score;
  en_evaluated : int;  (** candidates actually compiled and scored *)
  en_illegal : int;  (** hard-rejected by the legality verifier *)
  en_failed : int;  (** compilations that raised *)
  en_pruned : int;  (** dropped by the footprint bound, never compiled *)
  en_trajectory : (string * float) list;
      (** best-so-far trace: (candidate name, cost) at each improvement *)
}

type t

val schema_version : int

val empty : t

val key : Prog.t -> Search_space.t -> string
(** The content-addressed tuning key (workload digest x space signature
    x the CPU target). *)

val prog_digest : Prog.t -> string
(** MD5 hex digest of the canonical program rendering alone. *)

val find : t -> string -> entry option

val add : t -> entry -> t
(** Insert or replace the entry under [entry.en_key]. *)

val entries : t -> entry list
(** All entries, sorted by key (deterministic). *)

val load : string -> (t, string) result
(** Read a database file. A missing or empty file is an empty
    database; an unreadable, malformed or wrong-schema file is an
    [Error]. *)

val save : string -> t -> (unit, string) result
(** [Error] names the path when the file cannot be written. *)

val entry_to_json : entry -> Json_util.Json.t

val entry_of_json : Json_util.Json.t -> (entry, string) result

val make_entry :
  workload:string -> key:string -> strategy:string -> seed:int ->
  budget:int -> best:Search_space.candidate * Evaluator.score ->
  default:Search_space.candidate * Evaluator.score -> evaluated:int ->
  illegal:int -> failed:int -> pruned:int ->
  trajectory:(string * float) list -> entry
(** Stamp an entry with the current UTC time. *)
