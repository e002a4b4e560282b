(** One driver per table/figure of the paper's Section VI. Each prints
    the measured series (and the paper's reported numbers where ratios
    are comparable); EXPERIMENTS.md records the paper-vs-measured
    comparison. *)

val table1 : unit -> unit
(** PolyMage benchmarks on CPU: naive / PolyMage / Halide / ours
    execution times (32 threads) and the tile sizes used. *)

val fig8 : unit -> unit
(** Speedup over naive sequential vs thread count (1, 4, 16, 32) for the
    six pipelines and four versions. *)

val fig9 : unit -> unit
(** equake speedups over the baseline for minfuse / smartfuse / maxfuse /
    ours on the test / train / ref sizes. *)

val fig10 : unit -> unit
(** PolyMage benchmarks on GPU: smartfuse / maxfuse / Halide / ours
    speedup over the PPCG minfuse baseline. *)

val table2 : unit -> unit
(** PolyBench CPU execution times: sequential / icc / minfuse /
    smartfuse / maxfuse / hybridfuse / ours at 1, 8, 32 threads. *)

val table3 : unit -> unit
(** ResNet-50 on the NPU model: smartfuse vs ours, forward conv +
    batchnorm subset and entire workload, plus compilation time. *)

val compile_time : unit -> unit
(** Compilation-time comparison (Table I columns and Section VI-D):
    wall-clock and scheduling-search work of each heuristic and of our
    flow, with maxfuse's budget blow-ups. *)

val run_all : unit -> unit
