(** Bounded memo tables for the Fourier-Motzkin hot paths
    ({!Fm.is_empty}, {!Fm.eliminate}, {!Fm.remove_redundant},
    {!Fm.real_shadow_empty}), keyed on hash-consed system ids ({!Hc}):
    of the canonical system for [is_empty] and [remove_redundant], of
    the list as given for [eliminate] and [real_shadow_empty].

    Each cache is a two-generation table: when the young generation
    reaches 8192 entries, the old generation is dropped wholesale (a
    deterministic amortized-O(1) FIFO); probes that hit the old
    generation promote the entry. Hits, misses and evictions are
    counted in Obs as [fm.cache.<name>.hit/.miss/.evict] plus the
    [fm.cache.hit/.miss/.evict] aggregates, so they appear in
    [bench snapshot] lines and the exact-count gate covers them.

    {!set_enabled}[ false] disables memoization — results are then
    recomputed exactly and must be bit-identical, which
    [test/test_props.ml] enforces differentially. *)

type ('k, 'v) t

val create : string -> ('k, 'v) t
(** A new registered cache; the name keys its Obs counters. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** Memoized call: returns the cached value for the key, or computes,
    stores and returns it. When caching is disabled this is exactly
    [compute ()]. *)

val set_enabled : bool -> unit

val is_enabled : unit -> bool

val reset : unit -> unit
(** Clear every cache and drop the {!Hc} interning tables. Call
    between independent measurements (the bench snapshot collector
    does) so cache counters stay per-workload deterministic. *)
