(** Memory-hierarchy profiler: an {!Interp.hook} that builds a
    reuse-distance histogram and per-array / per-statement traffic
    attribution from the interpreted access trace.

    Reuse distance is measured at cache-line (64 B) granularity: the
    number of {e distinct other} lines touched between two accesses to
    the same line. Distances below a level's capacity in lines predict
    hits at that level; cold (first-touch) accesses are counted apart
    rather than folded into the largest bucket. DRAM attribution is
    sampled through a private scaled-Xeon {!Cache}, so per-array DRAM
    counts sum exactly to the cache's total. *)

type t

(** Attribution counters for one array or statement. [dram] counts
    accesses that missed every cache level. *)
type row = { accesses : int; reads : int; writes : int; dram : int }

val create : unit -> t

val hook : t -> Interp.hook
(** Feed to [Interp.run ~hook]. Accesses are attributed to the array
    and statement the hook names. Not thread-safe: profile through the
    sequential interpreter, never from runtime workers. *)

val per_array : t -> (string * row) list
(** Attribution rows keyed by array name, sorted. *)

val per_stmt : t -> (string * row) list
(** Attribution rows keyed by statement name, sorted. *)

val cache : t -> Cache.t
(** The cache instance the profiler samples through; {!Cache.publish}
    it once the run is over. *)

val total_accesses : t -> int

val cold_misses : t -> int
(** First-touch line accesses (infinite reuse distance). *)

val distinct_lines : t -> int

val reuse_histogram : t -> (int * int) list
(** Non-empty log2 buckets of the global reuse-distance histogram as
    [(bucket, count)]; see {!bucket_bounds} for the distance range a
    bucket covers. Cold accesses are excluded. *)

val bucket_bounds : int -> int * int
(** [(lo, hi)] inclusive distance range of a histogram bucket:
    bucket 0 is distance 0, bucket i covers [2^(i-1), 2^i - 1]. *)
