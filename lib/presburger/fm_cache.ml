(* Bounded memo tables for the Fourier-Motzkin hot paths.

   Each cache is a two-generation hashtable: inserts go to the young
   generation; when it fills up to the capacity, the old generation is
   dropped and the young one takes its place (a whole-generation FIFO,
   so eviction is O(1) amortized and deterministic). A probe that hits
   the old generation promotes the entry, giving cheap LRU-like
   behaviour without per-entry bookkeeping.

   Hits, misses and evicted entries are counted in Obs only
   (fm.cache.<name>.hit / .miss / .evict plus the fm.cache.hit /
   fm.cache.miss / fm.cache.evict aggregates), so cache behaviour lands
   in `bench snapshot` lines and the exact-count gate covers it.

   [set_enabled false] disables memoization: the exact paths are simply
   recomputed, and results are identical by construction, which the
   test_props differential suite enforces.

   Domain safety: one mutex guards every cache and the registry.
   [find_or_add] never holds it across [compute] — compute can recurse
   into other caches (the mutex is not reentrant) and can be expensive;
   a concurrent miss on the same key just computes twice and the second
   insert wins, which is correct for these pure memoizations. Obs
   counters are bumped outside the lock (lock order: Fm_cache -> Obs,
   never the reverse). *)

type ('k, 'v) t = {
  obs_hit : string;
  obs_miss : string;
  obs_evict : string;
  mutable young : ('k, 'v) Hashtbl.t;
  mutable old : ('k, 'v) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Global switch and registry                                          *)
(* ------------------------------------------------------------------ *)

let enabled = ref true

(* Per-cache generation capacity. *)
let capacity = 8192

let set_enabled b = enabled := b

let is_enabled () = !enabled

(* How to clear each registered cache. *)
let registry : (unit -> unit) list ref = ref []

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

let create name =
  let c =
    { obs_hit = "fm.cache." ^ name ^ ".hit";
      obs_miss = "fm.cache." ^ name ^ ".miss";
      obs_evict = "fm.cache." ^ name ^ ".evict";
      young = Hashtbl.create 256;
      old = Hashtbl.create 256
    }
  in
  with_lock (fun () ->
      registry :=
        (fun () ->
          Hashtbl.reset c.young;
          Hashtbl.reset c.old)
        :: !registry);
  c

(* ------------------------------------------------------------------ *)
(* Probe                                                               *)
(* ------------------------------------------------------------------ *)

(* Runs under the lock; returns the number of entries evicted so the
   caller can count them in Obs after unlocking. *)
let insert_unlocked c k v =
  let evicted =
    if Hashtbl.length c.young >= capacity then begin
      let evicted = Hashtbl.length c.old in
      let emptied = c.old in
      Hashtbl.reset emptied;
      c.old <- c.young;
      c.young <- emptied;
      evicted
    end
    else 0
  in
  Hashtbl.replace c.young k v;
  evicted

let count_evicted c evicted =
  if evicted > 0 then begin
    Obs.add c.obs_evict evicted;
    Obs.add "fm.cache.evict" evicted
  end

let find_or_add c k compute =
  if not !enabled then compute ()
  else begin
    let probe =
      with_lock (fun () ->
          match Hashtbl.find_opt c.young k with
          | Some v -> Some (v, 0)
          | None -> (
              match Hashtbl.find_opt c.old k with
              | Some v ->
                  (* promote so a warm entry survives the next rotation *)
                  Some (v, insert_unlocked c k v)
              | None -> None))
    in
    match probe with
    | Some (v, evicted) ->
        Obs.count c.obs_hit;
        Obs.count "fm.cache.hit";
        count_evicted c evicted;
        v
    | None ->
        Obs.count c.obs_miss;
        Obs.count "fm.cache.miss";
        (* computed outside the lock: compute can recurse into caches
           and a concurrent duplicate compute is harmless (pure). *)
        let v = compute () in
        let evicted = with_lock (fun () -> insert_unlocked c k v) in
        count_evicted c evicted;
        v
  end

let reset () =
  with_lock (fun () -> List.iter (fun clear -> clear ()) !registry);
  Hc.clear ()
