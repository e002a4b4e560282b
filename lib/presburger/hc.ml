(* Hash-consing of constraints and constraint systems.

   Interning maps every structurally equal constraint (and every
   structurally equal constraint list) to one shared representative
   carrying a unique integer id, so downstream memo tables can key on a
   single int and compare systems by pointer equality instead of
   re-hashing whole coefficient matrices on every probe.

   Ids are monotonically increasing and never reused: when the interning
   tables are trimmed (capacity bound) or cleared, stale ids simply stop
   matching anything, which keeps entries cached under an old id from
   ever aliasing a different system.

   A single mutex guards all three tables, so compiles running
   concurrently across domains (the tuner's parallel candidate
   evaluation) can intern safely; uncontended Mutex.lock is cheap
   relative to the structural hashing a probe already does. *)

type sys = { sys_id : int; sys_cstrs : Cstr.t list }

(* Capacity bound: interning tables are dropped wholesale when they
   exceed this many entries, so a pathological compile cannot grow them
   without bound. Sharing is lost for live systems, correctness is not. *)
let max_interned = 1 lsl 17

let mu = Mutex.create ()

let with_lock f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let cstr_tbl : (Cstr.t, Cstr.t * int) Hashtbl.t = Hashtbl.create 4096

let sys_tbl : (int list, sys) Hashtbl.t = Hashtbl.create 4096

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let n_interned_systems () = with_lock (fun () -> Hashtbl.length sys_tbl)

let intern_cstr_unlocked (c : Cstr.t) =
  match Hashtbl.find_opt cstr_tbl c with
  | Some entry -> entry
  | None ->
      if Hashtbl.length cstr_tbl >= max_interned then Hashtbl.reset cstr_tbl;
      let entry = (c, fresh_id ()) in
      Hashtbl.add cstr_tbl c entry;
      entry

(* Physical-identity index of canonical representative lists. Lists
   registered here are exactly the [sys_cstrs] of systems interned via
   {!intern_rep} (i.e. canonicalized by Fm.canonical), so a Bset/Bmap
   whose constraints came out of construction hits this table in O(1)
   and skips both re-canonicalization and per-constraint structural
   hashing. The hash is the (bounded) structural one — deterministic
   for a given list — while equality is pointer equality. *)
module Phys = Hashtbl.Make (struct
  type t = Cstr.t list

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let rep_tbl : sys Phys.t = Phys.create 4096

let find_rep cstrs = with_lock (fun () -> Phys.find_opt rep_tbl cstrs)

let clear () =
  with_lock (fun () ->
      Hashtbl.reset cstr_tbl;
      Hashtbl.reset sys_tbl;
      Phys.reset rep_tbl)

let intern_structural_unlocked cstrs =
  let reps = List.map intern_cstr_unlocked cstrs in
  let key = List.map snd reps in
  match Hashtbl.find_opt sys_tbl key with
  | Some s -> s
  | None ->
      if Hashtbl.length sys_tbl >= max_interned then Hashtbl.reset sys_tbl;
      let s = { sys_id = fresh_id (); sys_cstrs = List.map fst reps } in
      Hashtbl.add sys_tbl key s;
      s

let intern cstrs =
  with_lock (fun () ->
      match Phys.find_opt rep_tbl cstrs with
      | Some s -> s
      | None -> intern_structural_unlocked cstrs)

let intern_rep cstrs =
  with_lock (fun () ->
      match Phys.find_opt rep_tbl cstrs with
      | Some s -> s
      | None ->
          let s = intern_structural_unlocked cstrs in
          if Phys.length rep_tbl >= max_interned then Phys.reset rep_tbl;
          Phys.replace rep_tbl s.sys_cstrs s;
          s)
