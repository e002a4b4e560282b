(** Trace-driven CPU performance model.

    The generated AST is executed once by the interpreter; every memory
    access runs through the LRU cache hierarchy, attributing latency to
    the enclosing kernel region. Thread counts are applied analytically
    on top of the sequential trace: each kernel's cycles are divided by
    [min(threads, parallel iterations of its outermost coincident
    loop)], with a per-kernel fork/join overhead. Vectorizable kernels
    (innermost loop coincident — the ivdep condition of Section V)
    divide their arithmetic cycles by the vector width.

    The model is documented rather than hidden: cache sharing between
    threads and bandwidth contention are not simulated; speedup shapes
    (who wins, where fusion pays) are the reproduced quantity. *)

type config = {
  cores : int;
  cpi : float;  (** cycles per arithmetic operation (scalar) *)
  vector_width : int;
  freq_ghz : float;
  fork_join_cycles : float;  (** per parallel kernel launch *)
  dram_parallelism : int;
      (** memory-level parallelism: DRAM cycles stop scaling with thread
          count beyond this factor (bandwidth saturation) *)
}

val xeon_e5_2683 : config

type kernel_profile = {
  kp_id : int;
  kp_ops : int;
  kp_mem_cycles : int;  (** on-chip cache hit cycles *)
  kp_dram_cycles : int;  (** DRAM access cycles (bandwidth-limited) *)
  kp_par_iters : int;
  kp_vectorizable : bool;
}

type report = {
  kernels : kernel_profile list;
  cache : Cache.level_stats list;
  dram : int;
  instances : int;
  total_ops : int;
}

val deterministic_fill : ?seed:int -> Prog.t -> Interp.memory -> unit
(** Fill every array with deterministic pseudo-random data derived from
    the array name and [seed] (default 42). The same fill is used by
    {!profile}, {!run_to_memory} and the parallel runtime, so their
    results are directly comparable. *)

val profile : ?seed:int -> Prog.t -> Ast.t -> report
(** Allocates memory, fills every array with deterministic pseudo-random
    data, executes the AST through the cache hierarchy (the scaled Xeon
    model matching the reduced benchmark extents), then publishes the
    cache totals to [Obs] ({!Cache.publish}). *)

val time_ms : ?vectorize:bool -> config -> report -> threads:int -> float
(** [vectorize] overrides the per-kernel ivdep detection: [Some true]
    models hybridfuse's inner-level fusion / icc auto-vectorization,
    [Some false] a plain sequential compile. *)

val run_to_memory : ?seed:int -> Prog.t -> Ast.t -> Interp.memory
(** Execute and return the memory (semantic-comparison oracle). *)
