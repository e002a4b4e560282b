open Wl

type block = {
  blk_name : string;
  height : int;
  width : int;
  c_in : int;
  c_out : int;
  ksize : int;
}

(* Sixteen blocks sampling the four ResNet-50 stages; spatial extents
   shrink by ksize-1 per block (valid convolutions, no padding). *)
let default_blocks () =
  let mk i h c_in c_out =
    { blk_name = Printf.sprintf "l%d" i; height = h; width = h; c_in; c_out; ksize = 3 }
  in
  let rec chain i h c acc =
    if i >= 16 then List.rev acc
    else begin
      let c_out = if i = 3 || i = 7 || i = 11 then c * 2 else c in
      let c_out = min c_out 16 in
      chain (i + 1) (h - 2) c_out (mk i h c c_out :: acc)
    end
  in
  chain 0 40 4 []

(* A single block as its own operator-group program (the granularity at
   which the AKG flow compiles and fuses operators). *)
let layer ?(with_relu = true) (b : block) =
  let t = Pipe.create ("resnet_" ^ b.blk_name ^ (if with_relu then "" else "_cb")) ~params:[] in
  Pipe.input t "IN0" [ cst (b.height + b.ksize - 1); cst (b.width + b.ksize - 1); cst b.c_in ];
  let weights = "W_" ^ b.blk_name in
  Pipe.array t weights [ cst b.c_out; cst b.ksize; cst b.ksize; cst b.c_in ];
  Pipe.array t ("GAMMA_" ^ b.blk_name) [ cst b.c_out ];
  Pipe.array t ("BETA_" ^ b.blk_name) [ cst b.c_out ];
  let extents = [ cst b.height; cst b.width; cst b.c_out ] in
  Pipe.reduction t ~name:("conv_" ^ b.blk_name) ~out:("CV_" ^ b.blk_name) ~extents
    ~red_dims:[ ("kh", cst b.ksize); ("kw", cst b.ksize); ("ci", cst b.c_in) ]
    ~reads:
      [ ("IN0", [ idx (dim 0 +$ dim 3); idx (dim 1 +$ dim 4); idx (dim 5) ]);
        (weights, [ idx (dim 2); idx (dim 3); idx (dim 4); idx (dim 5) ])
      ]
    ~ops:2
    ~combine:(fun v -> v.(0) +. (v.(1) *. v.(2)))
    ();
  Pipe.stage t ~name:("bn_" ^ b.blk_name) ~out:("BN_" ^ b.blk_name) ~extents
    ~reads:
      [ ("CV_" ^ b.blk_name, [ idx (dim 0); idx (dim 1); idx (dim 2) ]);
        ("GAMMA_" ^ b.blk_name, [ idx (dim 2) ]);
        ("BETA_" ^ b.blk_name, [ idx (dim 2) ])
      ]
    ~ops:2
    ~compute:(fun v -> (v.(1) *. v.(0)) +. v.(2))
    ();
  if with_relu then begin
    Pipe.stage t ~name:("relu_" ^ b.blk_name) ~out:("RL_" ^ b.blk_name) ~extents
      ~reads:[ ("BN_" ^ b.blk_name, [ idx (dim 0); idx (dim 1); idx (dim 2) ]) ]
      ~ops:1
      ~compute:(fun v -> Float.max 0.0 v.(0))
      ()
  end;
  Pipe.finish t
    ~live_out:[ (if with_relu then "RL_" else "BN_") ^ b.blk_name ]

let build ?(blocks = default_blocks ()) () =
  let t = Pipe.create "resnet50_fwd" ~params:[] in
  let in_name = ref "IN0" in
  (match blocks with
  | [] -> invalid_arg "Resnet.build: empty block list"
  | b0 :: _ ->
      Pipe.input t "IN0"
        [ cst (b0.height + b0.ksize - 1); cst (b0.width + b0.ksize - 1); cst b0.c_in ]);
  List.iter
    (fun b ->
      let conv_name = "conv_" ^ b.blk_name in
      let weights = "W_" ^ b.blk_name in
      Pipe.array t weights [ cst b.c_out; cst b.ksize; cst b.ksize; cst b.c_in ];
      Pipe.array t ("GAMMA_" ^ b.blk_name) [ cst b.c_out ];
      Pipe.array t ("BETA_" ^ b.blk_name) [ cst b.c_out ];
      let extents = [ cst b.height; cst b.width; cst b.c_out ] in
      Pipe.reduction t ~name:conv_name ~out:("CV_" ^ b.blk_name) ~extents
        ~red_dims:[ ("kh", cst b.ksize); ("kw", cst b.ksize); ("ci", cst b.c_in) ]
        ~reads:
          [ (!in_name, [ idx (dim 0 +$ dim 3); idx (dim 1 +$ dim 4); idx (dim 5) ]);
            (weights, [ idx (dim 2); idx (dim 3); idx (dim 4); idx (dim 5) ])
          ]
        ~ops:2
        ~combine:(fun v -> v.(0) +. (v.(1) *. v.(2)))
        ();
      Pipe.stage t ~name:("bn_" ^ b.blk_name) ~out:("BN_" ^ b.blk_name) ~extents
        ~reads:
          [ ("CV_" ^ b.blk_name, [ idx (dim 0); idx (dim 1); idx (dim 2) ]);
            ("GAMMA_" ^ b.blk_name, [ idx (dim 2) ]);
            ("BETA_" ^ b.blk_name, [ idx (dim 2) ])
          ]
        ~ops:2
        ~compute:(fun v -> (v.(1) *. v.(0)) +. v.(2))
        ();
      Pipe.stage t ~name:("relu_" ^ b.blk_name) ~out:("RL_" ^ b.blk_name) ~extents
        ~reads:[ ("BN_" ^ b.blk_name, [ idx (dim 0); idx (dim 1); idx (dim 2) ]) ]
        ~ops:1
        ~compute:(fun v -> Float.max 0.0 v.(0))
        ();
      in_name := "RL_" ^ b.blk_name)
    blocks;
  Pipe.finish t ~live_out:[ !in_name ]

let unit_kind name =
  if String.length name >= 5 && String.sub name 0 5 = "conv_" then Npu_model.Cube
  else Npu_model.Vector
