(** Hash-consing of constraints and constraint systems.

    [intern] maps structurally equal constraint lists to one shared
    {!sys} representative with a unique integer id, so memo tables
    ({!Fm_cache}) can key on an int and structurally equal systems are
    pointer-equal. Ids are never reused, even across {!clear}: a stale
    id cached by a client can never alias a different system. *)

type sys = { sys_id : int; sys_cstrs : Cstr.t list }

val intern : Cstr.t list -> sys
(** The unique representative of a constraint list. Two calls with
    structurally equal lists return the same ([==]) record. O(1) when
    the argument is a registered canonical representative (see
    {!intern_rep}); one structural pass otherwise. *)

val intern_rep : Cstr.t list -> sys
(** Like {!intern}, and additionally registers the representative's
    own list under physical identity, so later {!find_rep}/{!intern}
    calls on it short-circuit. Callers must only pass canonicalized
    lists (Fm.canonical does): {!find_rep} treats registration as a
    proof of canonical form. *)

val find_rep : Cstr.t list -> sys option
(** The system whose [sys_cstrs] IS (pointer-equal to) the argument,
    if it was interned via {!intern_rep}. *)

val clear : unit -> unit
(** Drop the interning tables (sharing is lost, ids are not reused). *)

val n_interned_systems : unit -> int
