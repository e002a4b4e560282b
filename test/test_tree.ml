(* Schedule-tree, post-tiling-fusion generalization (Fig. 6 shared
   spaces, dead-store elimination) and backend-emission tests. *)

open Presburger
open Wl

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Schedule-tree operations                                            *)
(* ------------------------------------------------------------------ *)

let test_floor_div_map () =
  let m =
    Schedule_tree.floor_div_map ~tuple_in:"b" ~dims:[| "x"; "y" |] ~tuple_out:"T"
      ~tile_sizes:[| 4; 8 |]
  in
  (* (9, 17) falls in tile (2, 2) *)
  let img =
    Bmap.apply_set
      (Parse.bset "{ b[x, y] : x = 9 and y = 17 }" |> fun s ->
       Bset.set_tuple s "b")
      m
  in
  check bool "tile coordinates" true (Iset.contains (Iset.of_bset img) ~tuple:"T" [| 2; 2 |])

let test_tile_band () =
  let p = Conv2d.build () in
  let deps = Deps.compute p in
  let g = Fusion.group_of_stmts p ~deps [ "S1"; "S2"; "S3" ] in
  let band = Build_tree.group_band p g ~name:"b" in
  let tile, point = Schedule_tree.tile_band band ~tile_sizes:[| 2; 2 |] ~prefix:"T_" in
  check int "tile band members" 2 tile.Schedule_tree.n_members;
  check int "point band members" 2 point.Schedule_tree.n_members;
  check bool "permutable preserved" true tile.Schedule_tree.permutable

let test_filters_under () =
  let p = Conv2d.build () in
  let c = Core.Pipeline.run ~target:Core.Pipeline.Cpu ~tile_size:2 p in
  let names = Schedule_tree.filters_under c.Core.Pipeline.tree in
  List.iter
    (fun s -> check bool s true (List.mem s names))
    [ "S0"; "S1"; "S2"; "S3" ]

let test_map_tree_rewrite () =
  let p = Conv2d.build () in
  let c = Core.Pipeline.run ~target:Core.Pipeline.Cpu ~tile_size:2 p in
  let count = ref 0 in
  let _ =
    Schedule_tree.map_tree
      (function
        | Schedule_tree.Mark (m, _) when String.starts_with ~prefix:"kernel" m ->
            incr count;
            None
        | _ -> None)
      c.Core.Pipeline.tree
  in
  check int "one kernel mark visited" 1 !count

(* ------------------------------------------------------------------ *)
(* Fig. 6: one definition, multiple uses                               *)
(* ------------------------------------------------------------------ *)

(* producer P writes A[0..2N+2); consumers are 2-tap stencils (so the
   start-up heuristic cannot band-fuse them with P): L1 (live-out X)
   reads A[i], A[i+1]; L2 (live-out Y) reads at offset N+1 (disjoint
   subsets, P fused into both roots) or offset 4 (overlapping subsets,
   fusion refused -- never any redundancy). *)
let two_consumers ~overlap =
  let params = [ "N" ] in
  let n = prm "N" in
  let one = cst 1 in
  let producer =
    Prog.mk_stmt ~name:"P"
      ~domain:(box ~params "P" [ ("i", cst 0, (2 *$ n) +$ one) ])
      ~write:(access ~params ~stmt:"P" ~dims:[ "i" ] "A" [ idx (dim 0) ])
      ~reads:[ access ~params ~stmt:"P" ~dims:[ "i" ] "IN" [ idx (dim 0) ] ]
      ~compute:(fun v -> v.(0) +. 1.0)
      ~ops:1 ()
  in
  let consumer name out off =
    Prog.mk_stmt ~name
      ~domain:(box ~params name [ ("i", cst 0, n -$ one) ])
      ~write:(access ~params ~stmt:name ~dims:[ "i" ] out [ idx (dim 0) ])
      ~reads:
        [ access ~params ~stmt:name ~dims:[ "i" ] "A" [ idx (dim 0 +$ off) ];
          access ~params ~stmt:name ~dims:[ "i" ] "A"
            [ idx (dim 0 +$ off +$ one) ]
        ]
      ~compute:(fun v -> v.(0) +. v.(1))
      ~ops:1 ()
  in
  Prog.make ~name:"two_consumers" ~params:[ ("N", 32) ]
    ~arrays:
      [ arr "IN" [ (2 *$ n) +$ cst 2 ];
        arr "A" [ (2 *$ n) +$ cst 2 ];
        arr "X" [ n ];
        arr "Y" [ n ]
      ]
    ~stmts:
      [ producer;
        consumer "L1" "X" (cst 0);
        consumer "L2" "Y" (if overlap then cst 4 else n +$ one)
      ]
    ~live_out:[ "X"; "Y" ]

let test_disjoint_uses_fused () =
  let p = two_consumers ~overlap:false in
  let c = Core.Pipeline.run ~target:Core.Pipeline.Cpu ~tile_size:8 p in
  let plan = c.Core.Pipeline.plan in
  (* P fused into both roots, original skipped *)
  check int "two roots" 2 (List.length plan.Core.Post_tiling.roots);
  check bool "producer skipped" true (plan.Core.Post_tiling.skipped <> []);
  List.iter
    (fun (r : Core.Post_tiling.root) ->
      check int "P fused in each root" 1 (List.length r.Core.Post_tiling.fused_ids))
    plan.Core.Post_tiling.roots;
  (* and the transformed program is correct *)
  let reference = Exp_util.naive p in
  check bool "semantics" true
    (Exp_util.check_against p reference (Exp_util.ours ~tile:8 ~target:Core.Pipeline.Cpu p))

let test_overlapping_uses_not_fused () =
  let p = two_consumers ~overlap:true in
  let c = Core.Pipeline.run ~target:Core.Pipeline.Cpu ~tile_size:8 p in
  let plan = c.Core.Pipeline.plan in
  (* the shared subsets intersect: fusion would duplicate work, so the
     producer is scheduled standalone (never any redundancy) *)
  check bool "producer not skipped" true (plan.Core.Post_tiling.skipped = []);
  let reference = Exp_util.naive p in
  check bool "semantics" true
    (Exp_util.check_against p reference (Exp_util.ours ~tile:8 ~target:Core.Pipeline.Cpu p))

(* ------------------------------------------------------------------ *)
(* Dead-store elimination (Algorithm 3, extreme case)                  *)
(* ------------------------------------------------------------------ *)

let test_dead_store_elimination () =
  (* the producer computes 2N+2 elements; the single stencil consumer
     only ever reads the first N+1: the fused tiles cover a strict
     subset of P's domain and the skipped original never executes the
     dead half *)
  let params = [ "N" ] in
  let n = prm "N" in
  let one = cst 1 in
  let producer =
    Prog.mk_stmt ~name:"P"
      ~domain:(box ~params "P" [ ("i", cst 0, (2 *$ n) +$ one) ])
      ~write:(access ~params ~stmt:"P" ~dims:[ "i" ] "A" [ idx (dim 0) ])
      ~reads:[ access ~params ~stmt:"P" ~dims:[ "i" ] "IN" [ idx (dim 0) ] ]
      ~compute:(fun v -> v.(0) +. 1.0)
      ~ops:1 ()
  in
  let consumer =
    Prog.mk_stmt ~name:"L"
      ~domain:(box ~params "L" [ ("i", cst 0, n -$ one) ])
      ~write:(access ~params ~stmt:"L" ~dims:[ "i" ] "X" [ idx (dim 0) ])
      ~reads:
        [ access ~params ~stmt:"L" ~dims:[ "i" ] "A" [ idx (dim 0) ];
          access ~params ~stmt:"L" ~dims:[ "i" ] "A" [ idx (dim 0 +$ one) ]
        ]
      ~compute:(fun v -> v.(0) +. v.(1))
      ~ops:1 ()
  in
  let p =
    Prog.make ~name:"dead_store" ~params:[ ("N", 32) ]
      ~arrays:
        [ arr "IN" [ (2 *$ n) +$ cst 2 ];
          arr "A" [ (2 *$ n) +$ cst 2 ];
          arr "X" [ n ]
        ]
      ~stmts:[ producer; consumer ] ~live_out:[ "X" ]
  in
  let v = Exp_util.ours ~tile:8 ~target:Core.Pipeline.Cpu p in
  let mem = Interp.alloc p in
  let executed = Harness.instances_per_stmt p v.Exp_util.ast mem "P" in
  (* the consumer needs A[0..32]; with 8-wide tiles the overlap border
     re-executes 3 instances (4 tiles x 9 points = 36), while the dead
     half of the 66-point domain is never computed *)
  check int "fused executions (live half + overlap)" 36 executed;
  check bool "dead half eliminated" true (executed < 66);
  check bool "live-out X correct" true
    (Exp_util.check_against p (Exp_util.naive p) v)

(* ------------------------------------------------------------------ *)
(* Section IV-D: time-unrolled stencil gets tile-wise concurrent start *)
(* ------------------------------------------------------------------ *)

let test_jacobi_unrolled () =
  let p = Jacobi.build ~n:64 ~steps:3 () in
  let c = Core.Pipeline.run ~target:Core.Pipeline.Cpu ~tile_size:16 p in
  let plan = c.Core.Pipeline.plan in
  (* all earlier steps fuse into the last step's tiles, and the tile
     loop stays parallel (concurrent start across overlapped tiles) *)
  check int "one root" 1 (List.length plan.Core.Post_tiling.roots);
  check int "earlier steps fused" 2 (List.length plan.Core.Post_tiling.skipped);
  let ast = Gen.generate p c.Core.Pipeline.tree in
  let rec outer_parallel = function
    | Ast.Kernel (_, t) | Ast.Block (t :: _) -> outer_parallel t
    | Ast.For { coincident; _ } -> coincident
    | _ -> false
  in
  check bool "concurrent start" true (outer_parallel ast);
  check bool "semantics" true
    (Exp_util.check_against p (Exp_util.naive p)
       (Exp_util.ours ~tile:16 ~target:Core.Pipeline.Cpu p))

(* ------------------------------------------------------------------ *)
(* Backends                                                            *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let conv_compiled =
  let p = Conv2d.build () in
  let c = Core.Pipeline.run ~target:Core.Pipeline.Cpu ~tile_size:2 p in
  (p, Gen.generate p c.Core.Pipeline.tree)

let test_emit_openmp () =
  let p, ast = conv_compiled in
  let src = Emit.openmp ~staged:[ "A" ] p ast in
  check bool "pragma" true (contains src "#pragma omp parallel for");
  check bool "scratchpad" true (contains src "A_tile");
  check bool "macros" true (contains src "#define S2(");
  check bool "loops" true (contains src "for (int c0")

let test_emit_cuda () =
  let p, ast = conv_compiled in
  let src = Emit.cuda ~staged:[ "A" ] p ast in
  check bool "kernel" true (contains src "__global__ void kernel");
  check bool "blocks" true (contains src "blockIdx.x");
  check bool "threads" true (contains src "threadIdx.x");
  check bool "shared memory" true (contains src "__shared__")

let test_emit_cce () =
  let b = List.hd (Resnet.default_blocks ()) in
  let p = Resnet.layer b in
  let c = Core.Pipeline.run ~fuse_reductions:false ~tile_size:8 ~target:Core.Pipeline.Npu p in
  let ast = Gen.generate p c.Core.Pipeline.tree in
  let kind s = match Resnet.unit_kind s with Npu_model.Cube -> `Cube | Npu_model.Vector -> `Vector in
  let src = Emit.cce ~staged:[ "CV_l0" ] ~kind_of:kind p ast in
  check bool "cube op" true (contains src "on CUBE");
  check bool "vector op" true (contains src "on VECTOR");
  check bool "dma" true (contains src "dma DDR")

let () =
  Harness.run "tree"
    [ ( "schedule-tree",
        [ Alcotest.test_case "floor div map" `Quick test_floor_div_map;
          Alcotest.test_case "tile band" `Quick test_tile_band;
          Alcotest.test_case "filters under" `Quick test_filters_under;
          Alcotest.test_case "map_tree" `Quick test_map_tree_rewrite
        ] );
      ( "fig6",
        [ Alcotest.test_case "disjoint uses fused" `Quick test_disjoint_uses_fused;
          Alcotest.test_case "overlapping uses not fused" `Quick
            test_overlapping_uses_not_fused
        ] );
      ( "dead-stores",
        [ Alcotest.test_case "elimination" `Quick test_dead_store_elimination ] );
      ( "stencils",
        [ Alcotest.test_case "time-unrolled jacobi" `Quick test_jacobi_unrolled ] );
      ( "backends",
        [ Alcotest.test_case "openmp" `Quick test_emit_openmp;
          Alcotest.test_case "cuda" `Quick test_emit_cuda;
          Alcotest.test_case "cce" `Quick test_emit_cce
        ] )
    ]
