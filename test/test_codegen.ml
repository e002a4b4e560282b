(* Code generation tests: expression simplification and evaluation,
   loop structure of generated code, guard pruning, and the semantic
   oracle across every workload and flow (reduced sizes). *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let test_simplify () =
  let e = Ast.Sum [ Ast.Int 2; Ast.Sum [ Ast.Int 3; Ast.Var "x" ]; Ast.Int (-5) ] in
  check bool "constants folded" true (Ast.simplify_expr e = Ast.Var "x");
  check bool "mul by one" true (Ast.simplify_expr (Ast.Mul (1, Ast.Var "x")) = Ast.Var "x");
  check bool "mul by zero" true (Ast.simplify_expr (Ast.Mul (0, Ast.Var "x")) = Ast.Int 0);
  check bool "div by one" true
    (Ast.simplify_expr (Ast.Floor_div (Ast.Var "x", 1)) = Ast.Var "x");
  check bool "nested min flattened" true
    (match
       Ast.simplify_expr
         (Ast.Min_of [ Ast.Min_of [ Ast.Var "a"; Ast.Var "b" ]; Ast.Var "c" ])
     with
    | Ast.Min_of l -> List.length l = 3
    | _ -> false)

let test_eval () =
  let params = [ ("N", 10) ] and env = [ ("i", 3) ] in
  let v e = Ast.eval_expr ~params ~env e in
  check int "sum" 13 (v (Ast.Sum [ Ast.Param "N"; Ast.Var "i" ]));
  check int "floor" 1 (v (Ast.Floor_div (Ast.Var "i", 2)));
  check int "ceil" 2 (v (Ast.Ceil_div (Ast.Var "i", 2)));
  check int "min" 3 (v (Ast.Min_of [ Ast.Param "N"; Ast.Var "i" ]));
  check int "max" 10 (v (Ast.Max_of [ Ast.Param "N"; Ast.Var "i" ]))

(* ------------------------------------------------------------------ *)
(* Structure of generated code                                         *)
(* ------------------------------------------------------------------ *)

let conv = Conv2d.build ()

let ours_ast =
  let c = Core.Pipeline.run ~target:Core.Pipeline.Cpu ~tile_size:2 conv in
  Gen.generate conv c.Core.Pipeline.tree

let rec count_ifs = function
  | Ast.If (_, b) -> 1 + count_ifs b
  | Ast.For { body; _ } -> count_ifs body
  | Ast.Block ts -> List.fold_left (fun a t -> a + count_ifs t) 0 ts
  | Ast.Kernel (_, t) | Ast.Point t -> count_ifs t
  | Ast.Call _ | Ast.Nop -> 0

let rec count_calls = function
  | Ast.If (_, b) -> count_calls b
  | Ast.For { body; _ } -> count_calls body
  | Ast.Block ts -> List.fold_left (fun a t -> a + count_calls t) 0 ts
  | Ast.Kernel (_, t) | Ast.Point t -> count_calls t
  | Ast.Call _ -> 1
  | Ast.Nop -> 0

let test_conv_structure () =
  (* fused code: a single kernel, 8 loops (2 tile + 2 producer point +
     2 consumer point + 2 reduction), all four statements called *)
  check int "one kernel" 1 (List.length (Ast.kernels ours_ast));
  check int "loops" 8 (Ast.count_loops ours_ast);
  check int "calls" 4 (count_calls ours_ast);
  check int "no redundant guards" 0 (count_ifs ours_ast)

let test_skipped_not_generated () =
  (* the skipped S0 subtree must not appear as a second S0 call site *)
  let s = Ast.to_string ours_ast in
  let occurrences needle =
    let n = String.length needle and h = String.length s in
    let rec go i acc =
      if i + n > h then acc
      else go (i + 1) (if String.sub s i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  check int "S0 called exactly once" 1 (occurrences "S0(")

let test_parallel_annotations () =
  (* the tile loops of the fused kernel stay parallel *)
  let rec outer_parallel = function
    | Ast.Kernel (_, t) -> outer_parallel t
    | Ast.Block (t :: _) -> outer_parallel t
    | Ast.For { coincident; _ } -> coincident
    | _ -> false
  in
  check bool "outer tile loop parallel" true (outer_parallel ours_ast)

(* ------------------------------------------------------------------ *)
(* Bounds correctness                                                  *)
(* ------------------------------------------------------------------ *)

let test_instance_coverage () =
  let p = Conv2d.build ~h:10 ~w:10 () in
  let c = Core.Pipeline.run ~target:Core.Pipeline.Cpu ~tile_size:4 p in
  let ast = Gen.generate p c.Core.Pipeline.tree in
  let mem = Interp.alloc p in
  let executed = Harness.instances_per_stmt p ast mem in
  let card name = Prog.domain_card p (Prog.find_stmt p name) in
  (* consumers execute exactly once per instance *)
  List.iter
    (fun s -> check int (s ^ " exact") (card s) (executed s))
    [ "S1"; "S2"; "S3" ];
  (* the overlapped producer executes at least once per needed instance *)
  check bool "S0 covers its domain" true (executed "S0" >= card "S0")

(* ------------------------------------------------------------------ *)
(* The semantic oracle across all workloads and flows                  *)
(* ------------------------------------------------------------------ *)

let oracle_case (e : Registry.entry) =
  Alcotest.test_case e.Registry.reg_name `Slow (fun () ->
      let p = e.Registry.small () in
      let reference = Exp_util.naive p in
      List.iter
        (fun v ->
          check bool
            (Printf.sprintf "%s/%s" e.Registry.reg_name v.Exp_util.ver_name)
            true
            (Exp_util.check_against p reference v))
        [ Exp_util.heuristic ~tile:8 ~target:Core.Pipeline.Cpu Fusion.Minfuse p;
          Exp_util.heuristic ~tile:8 ~target:Core.Pipeline.Cpu Fusion.Smartfuse p;
          Exp_util.heuristic ~tile:8 ~target:Core.Pipeline.Cpu Fusion.Maxfuse p;
          Exp_util.heuristic ~tile:8 ~target:Core.Pipeline.Cpu Fusion.Hybridfuse p;
          Exp_util.ours ~tile:8 ~target:Core.Pipeline.Cpu p;
          Exp_util.polymage_version ~tile:8 ~target:Core.Pipeline.Cpu p;
          Exp_util.halide_version ~tile:8 ~target:Core.Pipeline.Cpu p
        ])

let test_odd_tile_sizes () =
  (* partial tiles: sizes that do not divide the extents *)
  List.iter
    (fun tile ->
      let p = Conv2d.build ~h:13 ~w:11 () in
      let reference = Exp_util.naive p in
      let v = Exp_util.ours ~tile ~target:Core.Pipeline.Cpu p in
      check bool
        (Printf.sprintf "tile %d" tile)
        true
        (Exp_util.check_against p reference v))
    [ 3; 5; 7 ]

let () =
  Harness.run "codegen"
    [ ( "expressions",
        [ Alcotest.test_case "simplify" `Quick test_simplify;
          Alcotest.test_case "eval" `Quick test_eval
        ] );
      ( "structure",
        [ Alcotest.test_case "conv fused kernel" `Quick test_conv_structure;
          Alcotest.test_case "skipped subtree" `Quick test_skipped_not_generated;
          Alcotest.test_case "parallel marks" `Quick test_parallel_annotations;
          Alcotest.test_case "instance coverage" `Quick test_instance_coverage;
          Alcotest.test_case "partial tiles" `Quick test_odd_tile_sizes
        ] );
      ("oracle", List.map oracle_case Registry.all)
    ]
