(** Multi-level set-associative LRU cache simulator (trace driven).

    Access, hit, miss and DRAM totals live in the simulator's own
    record; the per-access path never touches [Obs]. {!publish} hands
    them to [Obs] once, after a run. *)

type level_config = {
  name : string;
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  latency : int;  (** cycles on a hit at this level *)
}

type t

type level_stats = { level : string; hits : int; misses : int }

val create : levels:level_config list -> dram_latency:int -> t

val access : t -> addr:int -> write:bool -> int
(** Simulate one access; returns its latency in cycles. Write-allocate,
    inclusive hierarchy. *)

val stats : t -> level_stats list

val dram_accesses : t -> int

val publish : t -> unit
(** Add the totals since creation (or the last {!reset}) to the Obs
    counters [cache.accesses], [cache.<level>.hits],
    [cache.<level>.misses] and [cache.dram]. Zero totals are skipped,
    so a counter exists only once something incremented it. Call once
    per run. *)

val reset : t -> unit

val xeon_like : unit -> t
(** 32 KiB L1 (8-way) + 1 MiB L2 (16-way) + 40 MiB shared L3 (modelled at
    4 MiB per-core slice), latencies 4/14/50, DRAM 200. *)

val scaled_xeon : unit -> t
(** The same hierarchy scaled down by the benchmark-size reduction
    factor (2 KiB / 16 KiB / 64 KiB), preserving working-set-to-cache
    ratios when profiling the reduced-extent workloads. *)
