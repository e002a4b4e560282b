(* NPU example: one ResNet-50 block (convolution + batch normalization +
   ReLU) compiled for the DaVinci-style accelerator model, comparing the
   smartfuse baseline (which leaves the convolution unfused, paying the
   off-chip round-trip) against the paper's post-tiling fusion (the
   convolution output stays in the Unified Buffer).

   Run with: dune exec examples/npu_layer.exe *)

let () =
  let block = List.hd (Resnet.default_blocks ()) in
  let prog = Resnet.layer block in
  Printf.printf "block %s: %dx%d spatial, %d -> %d channels, %dx%d kernel\n\n"
    block.Resnet.blk_name block.Resnet.height block.Resnet.width
    block.Resnet.c_in block.Resnet.c_out block.Resnet.ksize block.Resnet.ksize;
  let describe label v =
    let cs = Exp_util.clusters prog v in
    Printf.printf "%s: %d operator groups\n" label (List.length cs);
    List.iter
      (fun (c : Footprints.cluster) ->
        let t = Footprints.cluster_traffic prog c in
        Printf.printf "  [%s] staged=[%s] ddr read %dB write %dB\n"
          (String.concat ", " c.Footprints.stmts)
          (String.concat ", " c.Footprints.staged_arrays)
          t.Footprints.read_bytes t.Footprints.write_bytes)
      cs;
    let t =
      Npu_model.time_ms Npu_model.ascend910 prog ~kind_of:Resnet.unit_kind cs
    in
    Printf.printf "  modelled time: %.3f ms\n\n" t;
    t
  in
  let smart =
    Exp_util.heuristic ~fuse_reductions:false ~target:Core.Pipeline.Npu
      Fusion.Smartfuse prog
  in
  let our =
    Exp_util.ours ~fuse_reductions:false ~tile:8 ~target:Core.Pipeline.Npu prog
  in
  let t_smart = describe "smartfuse (baseline)" smart in
  let t_ours = describe "post-tiling fusion (ours)" our in
  Printf.printf "speedup: %.2fx (paper reports 1.72x on the conv+bn subset)\n"
    (t_smart /. t_ours);
  Printf.printf "semantics identical: %b\n" (Exp_util.check_against prog smart our)
