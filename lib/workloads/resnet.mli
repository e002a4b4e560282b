(** A forward ResNet-50-style layer chain for the NPU experiment
    (Table III): blocks of [conv -> batchnorm scale/shift -> ReLU], with
    spatial down-sampling between stages, at reduced channel counts.

    Channels are explicit array dimensions; the convolution reduces over
    the kernel window and input channels. Layer shapes sample the four
    ResNet stages (56/28/14/7 spatial at scaled-down channel widths). *)

type block = {
  blk_name : string;
  height : int;
  width : int;
  c_in : int;
  c_out : int;
  ksize : int;
}

val default_blocks : unit -> block list
(** Representative blocks sampling the ResNet-50 stages. *)

val build : ?blocks:block list -> unit -> Prog.t
(** The chained program: each block reads the previous block's ReLU
    output; the final output is live-out. *)

val layer : ?with_relu:bool -> block -> Prog.t
(** One block (conv + batchnorm + ReLU) as its own operator-group
    program, the granularity at which the AKG flow compiles;
    [with_relu:false] gives the conv+batchnorm subset Table III reports
    separately. *)

val unit_kind : string -> Npu_model.unit_kind
(** Cube for convolutions, Vector for batchnorm/ReLU statements. *)
