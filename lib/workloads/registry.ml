type entry = {
  reg_name : string;
  description : string;
  build : unit -> Prog.t;
  small : unit -> Prog.t;
}

let all =
  [ { reg_name = "conv2d";
      description = "the paper's Fig. 1 running example (quant/conv/ReLU)";
      build = (fun () -> Conv2d.build ~h:128 ~w:128 ());
      small = (fun () -> Conv2d.build ~h:16 ~w:16 ())
    };
    { reg_name = "unsharp_mask";
      description = "PolyMage: unsharp mask (4 stages)";
      build = (fun () -> Polymage.unsharp_mask ~h:128 ~w:128 ());
      small = (fun () -> Polymage.unsharp_mask ~h:32 ~w:32 ())
    };
    { reg_name = "harris";
      description = "PolyMage: Harris corner detection (11 stages)";
      build = (fun () -> Polymage.harris ~h:128 ~w:128 ());
      small = (fun () -> Polymage.harris ~h:32 ~w:32 ())
    };
    { reg_name = "bilateral_grid";
      description = "PolyMage: bilateral grid (reduction + blurs + slice)";
      build = (fun () -> Polymage.bilateral_grid ~h:128 ~w:128 ());
      small = (fun () -> Polymage.bilateral_grid ~h:64 ~w:64 ())
    };
    { reg_name = "camera_pipeline";
      description = "PolyMage: camera pipeline (32 stages)";
      build = (fun () -> Polymage.camera_pipeline ~h2:64 ~w2:64 ());
      small = (fun () -> Polymage.camera_pipeline ~h2:24 ~w2:24 ())
    };
    { reg_name = "local_laplacian";
      description = "PolyMage: local Laplacian filter (pyramids)";
      build = (fun () -> Polymage.local_laplacian ~h:128 ~w:128 ~levels:4 ~bins:8 ());
      small = (fun () -> Polymage.local_laplacian ~h:64 ~w:64 ~levels:2 ~bins:2 ())
    };
    { reg_name = "multiscale_interp";
      description = "PolyMage: multiscale interpolation (pyramid chain)";
      build = (fun () -> Polymage.multiscale_interp ~h:128 ~w:128 ~levels:5 ());
      small = (fun () -> Polymage.multiscale_interp ~h:32 ~w:32 ~levels:2 ())
    };
    { reg_name = "equake";
      description = "SPEC CPU2000 equake (sparse FEM with dynamic counted loop)";
      build = (fun () -> Equake.build ~size:Equake.Train ());
      small = (fun () -> Equake.build ~size:Equake.Test ())
    };
    { reg_name = "2mm";
      description = "PolyBench: two chained matrix multiplications";
      build = (fun () -> Polybench.mm2 ~ni:96 ~nj:96 ~nk:96 ~nl:96 ());
      small = (fun () -> Polybench.mm2 ~ni:20 ~nj:20 ~nk:20 ~nl:20 ())
    };
    { reg_name = "gemver";
      description = "PolyBench: vector multiplications and matrix-vector products";
      build = (fun () -> Polybench.gemver ~n:256 ());
      small = (fun () -> Polybench.gemver ~n:32 ())
    };
    { reg_name = "covariance";
      description = "PolyBench: covariance of data samples";
      build = (fun () -> Polybench.covariance ~n:128 ~m:96 ());
      small = (fun () -> Polybench.covariance ~n:24 ~m:16 ())
    };
    { reg_name = "jacobi_unrolled";
      description = "time-unrolled Jacobi stencil (Section IV-D: concurrent start)";
      build = (fun () -> Jacobi.build ~n:4096 ~steps:6 ());
      small = (fun () -> Jacobi.build ~n:64 ~steps:3 ())
    };
    { reg_name = "fuzz_pipeline";
      description = "random pipeline from the differential-testing generator (seed 1)";
      build =
        (fun () ->
          Random_pipeline.generate
            { Random_pipeline.default_config with
              Random_pipeline.max_stages = 8;
              Random_pipeline.max_extent = 40
            }
            ~seed:1);
      small =
        (fun () ->
          Random_pipeline.generate Random_pipeline.default_config ~seed:1)
    };
    { reg_name = "resnet50";
      description = "ResNet-50 forward layer chain (NPU workload)";
      build = (fun () -> Resnet.build ());
      small =
        (fun () ->
          Resnet.build
            ~blocks:
              (match Resnet.default_blocks () with
              | a :: b :: _ -> [ a; b ]
              | l -> l)
            ())
    }
  ]

let names = List.map (fun e -> e.reg_name) all

let find name =
  match List.find_opt (fun e -> e.reg_name = name) all with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "unknown workload %s (available: %s)" name
           (String.concat ", " names))
