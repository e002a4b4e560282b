(* Independent schedule-legality verifier: every registry workload must
   verify clean through all 8 flows (the static checker re-derives the
   instance order from the final tree alone), mutated known-good trees
   must be rejected (the checker is not vacuously true), and the fuzz
   shrinker must reduce an injected failure to a fraction of the
   original spec. *)

let check = Alcotest.check
let bool = Alcotest.bool

let flows_of p =
  [ ("naive", Exp_util.naive p);
    ("minfuse", Exp_util.heuristic ~tile:5 ~target:Core.Pipeline.Cpu Fusion.Minfuse p);
    ("smartfuse", Exp_util.heuristic ~tile:5 ~target:Core.Pipeline.Cpu Fusion.Smartfuse p);
    ("maxfuse", Exp_util.heuristic ~tile:5 ~target:Core.Pipeline.Cpu Fusion.Maxfuse p);
    ("hybridfuse", Exp_util.heuristic ~tile:5 ~target:Core.Pipeline.Cpu Fusion.Hybridfuse p);
    ("ours", Exp_util.ours ~tile:5 ~target:Core.Pipeline.Cpu p);
    ("polymage", Exp_util.polymage_version ~tile:5 ~target:Core.Pipeline.Cpu p);
    ("halide", Exp_util.halide_version ~tile:5 ~target:Core.Pipeline.Cpu p)
  ]

let verify_workload reg_name =
  let e = Registry.find reg_name in
  let p = e.Registry.small () in
  let deps = Deps.compute p in
  List.iter
    (fun (fname, v) ->
      let tree = Exp_util.tree_of p v in
      let rep = Legality.check p ~deps tree in
      check Alcotest.(list string)
        (Printf.sprintf "%s/%s statically legal" reg_name fname)
        []
        (List.map Legality.violation_string rep.Legality.rep_violations))
    (flows_of p)

let registry_cases =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " x 8 flows") `Slow (fun () ->
          verify_workload name))
    Registry.names

(* ------------------------------------------------------------------ *)
(* Mutation tests: tamper with known-good trees and demand that the
   checker rejects each mutation with a named dependence — the checker
   must not be vacuously true. *)

(* A single statement with a loop-carried dependence of distance
   (1,-1): s(i,j) writes A[i][j] and reads A[i-1][j+1]. The textual
   (i,j) order is legal; interchanging or reversing the i dimension
   makes the source instance run after its consumer. *)
let antidiagonal_prog () =
  let open Wl in
  let domain = box "s" [ ("i", cst 1, cst 5); ("j", cst 0, cst 4) ] in
  let write =
    access ~stmt:"s" ~dims:[ "i"; "j" ] "A" [ idx (dim 0); idx (dim 1) ]
  in
  let read =
    access ~stmt:"s" ~dims:[ "i"; "j" ] "A"
      [ idx (dim 0 -$ cst 1); idx (dim 1 +$ cst 1) ]
  in
  Prog.make ~name:"antidiag" ~params:[]
    ~arrays:[ arr "A" [ cst 7; cst 7 ] ]
    ~stmts:
      [ Prog.mk_stmt ~name:"s" ~domain ~write ~reads:[ read ]
          ~compute:(fun v -> v.(0) +. 1.0)
          ~ops:1 ()
      ]
    ~live_out:[ "A" ]

(* Rewrite every band piece's constraint list; space and flags are kept
   so the mutation is purely about which instance order the band maps
   to. *)
let map_band_pieces f tree =
  Schedule_tree.map_tree
    (function
      | Schedule_tree.Band (b, child) ->
          let pieces =
            List.map f (Presburger.Imap.pieces b.Schedule_tree.partial)
          in
          Some
            (Schedule_tree.Band
               ( { b with Schedule_tree.partial = Presburger.Imap.of_bmaps pieces },
                 child ))
      | _ -> None)
    tree

let swap_first_two_out_dims (bm : Presburger.Bmap.t) =
  let open Presburger in
  let np = Bmap.n_params bm and ni = Bmap.n_in bm in
  if Bmap.n_out bm < 2 then bm
  else
    Bmap.make bm.Bmap.space
      (List.map
         (fun c ->
           Cstr.swap_blocks c ~pos1:(np + ni) ~len1:1 ~pos2:(np + ni + 1)
             ~len2:1)
         bm.Bmap.cstrs)

let negate_out_dim j (bm : Presburger.Bmap.t) =
  let open Presburger in
  let np = Bmap.n_params bm and ni = Bmap.n_in bm in
  if Bmap.n_out bm <= j then bm
  else
    Bmap.make bm.Bmap.space
      (List.map
         (fun (c : Cstr.t) ->
           let coef = Array.copy c.Cstr.coef in
           coef.(np + ni + j) <- -coef.(np + ni + j);
           { c with Cstr.coef })
         bm.Bmap.cstrs)

let reverse_sequences tree =
  Schedule_tree.map_tree
    (function
      | Schedule_tree.Sequence l -> Some (Schedule_tree.Sequence (List.rev l))
      | _ -> None)
    tree

let drop_one_extension tree =
  let dropped = ref false in
  let t =
    Schedule_tree.map_tree
      (function
        | Schedule_tree.Extension (_, child) when not !dropped ->
            dropped := true;
            Some child
        | _ -> None)
      tree
  in
  (!dropped, t)

let check_tree p tree = Legality.check p ~deps:(Deps.compute p) tree

let assert_rejected what (rep : Legality.report) =
  if rep.Legality.rep_violations = [] then
    Alcotest.failf "%s: mutation not rejected by the checker" what;
  (* every rejection must name the violated dependence (or the live-out
     array whose coverage broke), not just signal "something is off" *)
  if
    not
      (List.exists
         (fun (v : Legality.violation) ->
           v.Legality.vl_array <> ""
           && (v.Legality.vl_src <> "" || v.Legality.vl_kind = "liveout"))
         rep.Legality.rep_violations)
  then
    Alcotest.failf "%s: no violation names a dependence: %s" what
      (String.concat "; "
         (List.map Legality.violation_string rep.Legality.rep_violations))

let mutation_swap_band () =
  let p = antidiagonal_prog () in
  let good = Legality.naive_tree p in
  check Alcotest.(list string) "antidiag baseline legal" []
    (List.map Legality.violation_string
       (check_tree p good).Legality.rep_violations);
  let bad = map_band_pieces swap_first_two_out_dims good in
  assert_rejected "swap band members" (check_tree p bad)

let mutation_negate_dim () =
  let p = antidiagonal_prog () in
  let bad = map_band_pieces (negate_out_dim 0) (Legality.naive_tree p) in
  assert_rejected "reverse band dimension" (check_tree p bad)

let mutation_reverse_sequence () =
  let p = (Registry.find "conv2d").Registry.small () in
  let good = Legality.naive_tree p in
  check Alcotest.(list string) "conv2d naive baseline legal" []
    (List.map Legality.violation_string
       (check_tree p good).Legality.rep_violations);
  let bad = reverse_sequences good in
  let rep = check_tree p bad in
  assert_rejected "reverse sequence" rep;
  if
    not
      (List.exists
         (fun (v : Legality.violation) -> v.Legality.vl_kind = "raw")
         rep.Legality.rep_violations)
  then Alcotest.fail "reversed producer/consumer must surface a raw violation"

let mutation_drop_extension () =
  (* find a flow whose tree actually carries an extension node (the
     paper's recompute instances); dropping it must break coverage *)
  let candidates =
    List.concat_map
      (fun wname ->
        let p = (Registry.find wname).Registry.small () in
        [ (wname, p, Exp_util.ours ~tile:5 ~target:Core.Pipeline.Cpu p);
          (wname, p, Exp_util.polymage_version ~tile:5 ~target:Core.Pipeline.Cpu p)
        ])
      [ "harris"; "conv2d" ]
  in
  let found =
    List.find_map
      (fun (wname, p, v) ->
        let tree = Exp_util.tree_of p v in
        let dropped, bad = drop_one_extension tree in
        if dropped then Some (wname, v.Exp_util.ver_name, p, bad) else None)
      candidates
  in
  match found with
  | None -> Alcotest.fail "no flow produced an extension node to drop"
  | Some (wname, vname, p, bad) ->
      assert_rejected
        (Printf.sprintf "drop extension (%s/%s)" wname vname)
        (check_tree p bad)

(* ------------------------------------------------------------------ *)
(* Dynamic shadow validator: clean on an honest flow, loud on a
   tampered execution order even before values diverge. *)

let shadow_clean () =
  let p = (Registry.find "conv2d").Registry.small () in
  let ast = Gen.generate p (Legality.naive_tree p) in
  let rep = Shadow.validate p ~ref_ast:ast ~ast in
  check Alcotest.(list string) "naive vs naive shadow-clean" []
    (List.map Shadow.violation_string rep.Shadow.sh_violations);
  if rep.Shadow.sh_reads = 0 || rep.Shadow.sh_writes = 0 then
    Alcotest.fail "shadow validator observed no memory traffic"

let shadow_rejects_reversed () =
  let p = (Registry.find "conv2d").Registry.small () in
  let good = Legality.naive_tree p in
  let ref_ast = Gen.generate p good in
  let bad_ast = Gen.generate p (reverse_sequences good) in
  let rep = Shadow.validate p ~ref_ast ~ast:bad_ast in
  if rep.Shadow.sh_violations = [] then
    Alcotest.fail "reversed execution order passed the shadow validator";
  if
    not
      (List.exists
         (fun (v : Shadow.violation) ->
           v.Shadow.sv_kind = "read-before-write")
         rep.Shadow.sh_violations)
  then
    Alcotest.failf "expected a read-before-write violation, got: %s"
      (String.concat "; "
         (List.map Shadow.violation_string rep.Shadow.sh_violations))

(* ------------------------------------------------------------------ *)
(* Fuzz shrinker: an injected failure predicate must reduce to a small
   fraction of the original spec (the acceptance bound is <= half the
   stage count). *)

let shrink_halves () =
  let open Random_pipeline in
  (* pick a seed whose generated spec is big enough to be worth
     shrinking and contains a stencil stage the predicate can anchor *)
  let has_stencil sp =
    List.exists
      (fun st -> match st.sg_kind with Stencil _ -> true | _ -> false)
      sp.sp_stages
  in
  let rec pick seed =
    if seed > 200 then Alcotest.fail "no seed with >= 4 stages and a stencil"
    else
      let sp = spec_of_seed default_config ~seed in
      if List.length sp.sp_stages >= 4 && has_stencil sp then (seed, sp)
      else pick (seed + 1)
  in
  let seed, spec = pick 0 in
  (* the predicate lowers every candidate, as the fuzz harness does *)
  let predicate sp =
    let p = build_spec sp in
    List.exists (fun (s : Prog.stmt) -> List.length s.Prog.reads >= 3) p.Prog.stmts
  in
  let o = Shrink.shrink spec ~predicate in
  let n0 = List.length spec.sp_stages in
  let n1 = List.length o.Shrink.shrunk.sp_stages in
  if not (spec_valid o.Shrink.shrunk) then
    Alcotest.fail "shrunk spec is not feasible";
  if not (predicate o.Shrink.shrunk) then
    Alcotest.fail "shrunk spec no longer reproduces the failure";
  if 2 * n1 > n0 then
    Alcotest.failf "seed %d: shrink left %d of %d stages (> half)" seed n1 n0;
  let repro = Shrink.repro_ml ~seed ~note:"unit test" o.Shrink.shrunk in
  check bool "repro file is self-contained" true
    (let contains hay needle =
       let lh = String.length hay and ln = String.length needle in
       let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
       go 0
     in
     contains repro "Random_pipeline.build_spec")

let () =
  Harness.run "verify"
    [ ("registry-static", registry_cases);
      ( "mutations",
        [ Alcotest.test_case "swap band members" `Quick mutation_swap_band;
          Alcotest.test_case "reverse band dimension" `Quick mutation_negate_dim;
          Alcotest.test_case "reverse sequence" `Quick mutation_reverse_sequence;
          Alcotest.test_case "drop extension node" `Slow mutation_drop_extension
        ] );
      ( "shadow",
        [ Alcotest.test_case "naive is shadow-clean" `Quick shadow_clean;
          Alcotest.test_case "reversed order rejected" `Quick
            shadow_rejects_reversed
        ] );
      ("shrink", [ Alcotest.test_case "halves an injected failure" `Quick shrink_halves ])
    ]
