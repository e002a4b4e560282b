(** Models of the systems the paper compares against.

    These re-implement the *strategies* against our IR rather than the
    original codebases (DESIGN.md):

    - PolyMage: tiling-after-fusion with overlapped tiles whose shapes
      come from rescheduling rather than per-stage memory footprints;
      the paper attributes its losses to over-approximated footprints.
      Modelled by dilating every extension schedule by the producer
      chain depth (each fused stage gets the deepest stage's overlap)
      before clipping to the statement domains.

    - Halide manual schedules: the expert fixes which stages are
      computed inside the consumer's tiles (compute_at) and which at
      root; only computation-space transformations are available, so
      the decisions are a subset of what Algorithm 1 can derive. *)

val polymage : Core.Pipeline.compiled -> Core.Pipeline.compiled
(** Replace every extension schedule by its uniformly dilated
    over-approximation and rebuild the schedule tree. *)

val halide_fused_stages : string -> string -> bool
(** Per-benchmark manual-schedule decisions, keyed by program name then
    statement name (derived from the published Halide schedules: e.g.
    the Harris schedule misses the inlining PolyMage finds). *)
