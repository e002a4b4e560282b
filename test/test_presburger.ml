(* Tests for the presburger substrate: constraint engine, basic sets and
   maps, unions, parser. Includes the worked example of the paper
   (Section III-A, relations (2)-(4)). *)

open Presburger

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec () =
  check int "gcd" 6 (Vec.gcd 12 18);
  check int "gcd neg" 6 (Vec.gcd (-12) 18);
  check int "gcd zero" 5 (Vec.gcd 0 5);
  check int "floor pos" 2 (Vec.floor_div 7 3);
  check int "floor neg" (-3) (Vec.floor_div (-7) 3);
  check int "ceil pos" 3 (Vec.ceil_div 7 3);
  check int "ceil neg" (-2) (Vec.ceil_div (-7) 3);
  check int "floor exact" (-2) (Vec.floor_div (-6) 3);
  check int "ceil exact" (-2) (Vec.ceil_div (-6) 3)

(* ------------------------------------------------------------------ *)
(* Cstr                                                                *)
(* ------------------------------------------------------------------ *)

let test_cstr_simplify () =
  (match Cstr.simplify (Cstr.ge [| 2; 4 |] 3) with
  | Cstr.Keep c ->
      check bool "tighten ge" true (c.coef = [| 1; 2 |] && c.cst = 1)
  | _ -> Alcotest.fail "expected Keep");
  (match Cstr.simplify (Cstr.eq [| 2; 4 |] 3) with
  | Cstr.Trivial_false -> ()
  | _ -> Alcotest.fail "2x+4y+3=0 has no integer solution");
  (match Cstr.simplify (Cstr.ge [| 0; 0 |] (-1)) with
  | Cstr.Trivial_false -> ()
  | _ -> Alcotest.fail "expected trivially false");
  match Cstr.simplify (Cstr.eq [| 0 |] 0) with
  | Cstr.Trivial_true -> ()
  | _ -> Alcotest.fail "expected trivially true"

(* ------------------------------------------------------------------ *)
(* Basic sets                                                         *)
(* ------------------------------------------------------------------ *)

let test_set_empty () =
  let s = Parse.bset "{ S[i] : 0 <= i < 10 }" in
  check bool "non-empty" false (Bset.is_empty s);
  let e = Parse.bset "{ S[i] : 0 <= i and i <= -1 }" in
  check bool "empty" true (Bset.is_empty e);
  let g = Parse.bset "{ S[i] : 2 <= 2 * i and 2 * i <= 2 }" in
  check bool "singleton i=1" false (Bset.is_empty g);
  let h = Parse.bset "{ S[i] : 1 <= 2 * i and 2 * i <= 1 }" in
  check bool "no integer between 1/2 and 1/2" true (Bset.is_empty h)

let test_set_ops () =
  let a = Parse.bset "{ S[i, j] : 0 <= i < 8 and 0 <= j < 8 }" in
  let b = Parse.bset "{ S[i, j] : 4 <= i < 12 and 0 <= j < 8 }" in
  let inter = Bset.intersect a b in
  check int "card of intersection" 32 (Bset.card inter);
  check bool "subset" true (Bset.is_subset inter a);
  check bool "not subset" false (Bset.is_subset a b);
  let diff = Iset.subtract (Iset.of_bset a) (Iset.of_bset b) in
  check int "card of difference" 32 (Iset.card diff);
  let uni = Iset.union (Iset.of_bset a) (Iset.of_bset b) in
  check int "card of union (overlap counted once)" 96 (Iset.card uni)

let test_project_tiling_pattern () =
  (* project out the point dim from T*o <= i < T*o + T with 0 <= i < 12,
     T = 4: the tile dim o ranges over 0..2 *)
  let s = Parse.bset "{ S[o, i] : 4 * o <= i and i < 4 * o + 4 and 0 <= i < 12 }" in
  let proj = Bset.project_dims s ~first:1 ~count:1 in
  check int "tiles" 3 (Bset.card proj);
  let expected = Parse.bset "{ S[o] : 0 <= o <= 2 }" in
  check bool "tile range" true
    (Bset.is_subset proj expected && Bset.is_subset expected proj);
  (* and the reverse: project out the tile dim *)
  let proj2 = Bset.project_dims s ~first:0 ~count:1 in
  let expected2 = Parse.bset "{ S[i] : 0 <= i < 12 }" in
  check bool "point range" true
    (Bset.is_subset proj2 expected2 && Bset.is_subset expected2 proj2)

let test_box_and_card () =
  let tri = Parse.bset "{ S[i, j] : 0 <= i < 4 and 0 <= j <= i }" in
  check int "triangle card" 10 (Bset.card tri);
  let box = Bset.box_hull tri in
  check bool "box hull" true (box = [| (0, 3); (0, 3) |]);
  check int "box card" 16 (Bset.box_card tri)

let test_bind_params () =
  let s = Parse.bset "[N] -> { S[i] : 0 <= i < N }" in
  let s4 = Bset.bind_params s [ ("N", 4) ] in
  check int "bound card" 4 (Bset.card s4);
  check bool "contains 3" true (Bset.contains s4 [| 3 |]);
  check bool "not contains 4" false (Bset.contains s4 [| 4 |])

let test_sample () =
  let s = Parse.bset "{ S[i, j] : 3 <= i < 10 and i <= j and j < 2 * i }" in
  (match Bset.sample s with
  | Some pt -> check bool "sample member" true (Bset.contains s pt)
  | None -> Alcotest.fail "expected a sample");
  let e = Parse.bset "{ S[i] : 0 <= i and i <= -1 }" in
  check bool "no sample from empty" true (Bset.sample e = None)

let test_subtract_exact () =
  let a = Parse.bset "{ S[i] : 0 <= i < 10 }" in
  let b = Parse.bset "{ S[i] : 3 <= i < 6 }" in
  let d = Bset.subtract a b in
  let total = List.fold_left (fun acc p -> acc + Bset.card p) 0 d in
  check int "difference size" 7 total;
  List.iter
    (fun p ->
      check bool "disjoint from b" true
        (Bset.is_empty (Bset.intersect p b)))
    d

(* ------------------------------------------------------------------ *)
(* Basic maps                                                         *)
(* ------------------------------------------------------------------ *)

let test_map_domain_range () =
  let m = Parse.bmap "{ S[i] -> A[i + 2] : 0 <= i < 5 }" in
  let dom = Bmap.domain m and rng = Bmap.range m in
  check int "domain card" 5 (Bset.card dom);
  check int "range card" 5 (Bset.card rng);
  check bool "range shifted" true
    (Bset.is_subset rng (Parse.bset "{ A[x] : 2 <= x < 7 }"))

let test_map_reverse () =
  let m = Parse.bmap "{ S[i] -> A[i + 5] : 0 <= i < 4 }" in
  let r = Bmap.reverse m in
  check bool "reverse domain = range" true
    (Bset.is_subset (Bmap.domain r) (Bmap.range m)
    && Bset.is_subset (Bmap.range m) (Bmap.domain r))

(* The library has no existentially quantified dimensions, so the range
   of a stride-2 map (a parity-constrained set) is not representable:
   the operation must raise rather than over-approximate. *)
let test_stride_range_raises () =
  let m = Parse.bmap "{ S[i] -> A[2 * i] : 0 <= i < 4 }" in
  match Bmap.range m with
  | exception Fm.Inexact _ -> ()
  | _ -> Alcotest.fail "expected Inexact for a stride-2 range"

let test_map_compose () =
  let f = Parse.bmap "{ S[i] -> T[i + 1] : 0 <= i < 10 }" in
  let g = Parse.bmap "{ T[j] -> U[2 * j] : j >= 3 }" in
  let fg = Bmap.apply_range f g in
  (* i -> 2*(i+1) for i >= 2 *)
  let expected = Parse.bmap "{ S[i] -> U[k] : k = 2 * i + 2 and 2 <= i < 10 }" in
  check bool "compose" true
    (Bmap.is_subset fg expected && Bmap.is_subset expected fg)

let test_map_apply_set () =
  let s = Parse.bset "{ S[i] : 0 <= i < 4 }" in
  let m = Parse.bmap "{ S[i] -> A[i + 10] }" in
  let img = Bmap.apply_set s m in
  check bool "image" true
    (Bset.is_subset img (Parse.bset "{ A[x] : 10 <= x < 14 }")
    && Bset.is_subset (Parse.bset "{ A[x] : 10 <= x < 14 }") img)

let test_from_affs () =
  let m =
    Bmap.from_affs ~in_tuple:"S" ~in_dims:[ "h"; "w" ] ~out_tuple:"A"
      [ ("x", Aff.add (Aff.dim 0) (Aff.const 1)); ("y", Aff.dim 1) ]
  in
  let expected = Parse.bmap "{ S[h, w] -> A[x, y] : x = h + 1 and y = w }" in
  check bool "from_affs" true
    (Bmap.is_subset m expected && Bmap.is_subset expected m)

let test_lex_lt () =
  let sp = Space.set_space "S" [ "i"; "j" ] in
  let lt = Imap.lex_lt sp in
  let dom = Parse.bset "{ S[i, j] : 0 <= i < 2 and 0 <= j < 2 }" in
  let restricted =
    Imap.intersect_range (Imap.intersect_domain lt (Iset.of_bset dom)) (Iset.of_bset dom)
  in
  (* pairs (a,b) with a <lex b among 4 points: C(4,2) = 6 *)
  check int "lex pairs" 6 (Imap.card restricted)

(* ------------------------------------------------------------------ *)
(* The paper's worked example (Section III-A)                          *)
(* ------------------------------------------------------------------ *)

(* H = W = 6, KH = KW = 3, T2 = T3 = 2. Relation (2) maps S2 instances to
   tile coordinates; relation (3) is the read access of S2 to A;
   relation (4) = reverse(2) . (3) maps tiles to footprints of A. *)
let test_paper_relation_4 () =
  let rel2 =
    Parse.bmap
      "{ S2[h, w, kh, kw] -> T[o0, o1] : 2 * o0 <= h and h < 2 * o0 + 2 and \
       2 * o1 <= w and w < 2 * o1 + 2 and 0 <= h <= 3 and 0 <= w <= 3 and \
       0 <= kh < 3 and 0 <= kw < 3 }"
  in
  let rel3 =
    Parse.bmap
      "{ S2[h, w, kh, kw] -> A[x, y] : x = h + kh and y = w + kw and \
       0 <= h <= 3 and 0 <= w <= 3 and 0 <= kh < 3 and 0 <= kw < 3 }"
  in
  let rel4 = Bmap.apply_range (Bmap.reverse rel2) rel3 in
  (* Blue tile (o0,o1) = (1,0): footprint 2 <= x <= 5, 0 <= y <= 3 *)
  let blue = Bmap.apply_set (Parse.bset "{ T[o0, o1] : o0 = 1 and o1 = 0 }") rel4 in
  let blue_expected = Parse.bset "{ A[x, y] : 2 <= x <= 5 and 0 <= y <= 3 }" in
  check bool "blue tile footprint" true
    (Bset.is_subset blue blue_expected && Bset.is_subset blue_expected blue);
  (* Red tile (1,1): footprint 2 <= x <= 5, 2 <= y <= 5 *)
  let red = Bmap.apply_set (Parse.bset "{ T[o0, o1] : o0 = 1 and o1 = 1 }") rel4 in
  let red_expected = Parse.bset "{ A[x, y] : 2 <= x <= 5 and 2 <= y <= 5 }" in
  check bool "red tile footprint" true
    (Bset.is_subset red red_expected && Bset.is_subset red_expected red);
  check int "red footprint is 16 points" 16 (Bset.card red);
  (* overlap between consecutive tiles is non-empty (overlapped tiling) *)
  let overlap = Bset.intersect blue red in
  check int "overlap region" 8 (Bset.card overlap)

(* Relation (6): composing (4) with the reversed write access of S0
   tiles the quantization space. *)
let test_paper_relation_6 () =
  let rel4 =
    Parse.bmap
      "{ T[o0, o1] -> A[x, y] : 0 <= o0 < 2 and 0 <= o1 < 2 and \
       2 * o0 <= x and x < 2 * o0 + 4 and 2 * o1 <= y and y < 2 * o1 + 4 and \
       0 <= x < 6 and 0 <= y < 6 }"
  in
  let write5 = Parse.bmap "{ A[x, y] -> S0[h, w] : h = x and w = y and 0 <= x < 6 and 0 <= y < 6 }" in
  let rel6 = Bmap.apply_range rel4 write5 in
  let blue = Bmap.apply_set (Parse.bset "{ T[o0, o1] : o0 = 1 and o1 = 0 }") rel6 in
  let blue_expected = Parse.bset "{ S0[h, w] : 2 <= h <= 5 and 0 <= w <= 3 }" in
  check bool "S0 blue tile" true
    (Bset.is_subset blue blue_expected && Bset.is_subset blue_expected blue)

(* ------------------------------------------------------------------ *)
(* Unions                                                              *)
(* ------------------------------------------------------------------ *)

let test_union_tuples () =
  let u = Parse.set "{ A[i] : 0 <= i < 3; B[j] : 0 <= j < 2 }" in
  check bool "tuples" true (Iset.tuples u = [ "A"; "B" ]);
  check int "card across tuples" 5 (Iset.card u);
  let a_only = Iset.filter_tuple u "A" in
  check int "filtered card" 3 (Iset.card a_only)

let test_union_or () =
  let u = Parse.set "{ S[i] : 0 <= i < 3 or 10 <= i < 12 }" in
  check int "disjunctive card" 5 (Iset.card u);
  check bool "member of second disjunct" true (Iset.contains u ~tuple:"S" [| 10 |])

let test_coalesce () =
  let u = Parse.set "{ S[i] : 0 <= i < 10 or 2 <= i < 5 }" in
  let c = Iset.coalesce u in
  check int "coalesced to one piece" 1 (List.length (Iset.pieces c));
  check int "same points" 10 (Iset.card c)

(* ------------------------------------------------------------------ *)
(* Parser round-trips over the literal corpus                          *)
(* ------------------------------------------------------------------ *)

(* Every isl-syntax literal used in this file. Each must survive
   Parse -> to_string -> Parse with the same set of points, and the
   printed form must be a fixpoint (printing the reparse reproduces it
   byte for byte) — construction-time canonicalization makes the
   printed constraint order deterministic, so this pins it down. *)
let bset_corpus =
  [ "{ S[i] : 0 <= i < 10 }";
    "{ S[i] : 0 <= i and i <= -1 }";
    "{ S[i] : 2 <= 2 * i and 2 * i <= 2 }";
    "{ S[i] : 1 <= 2 * i and 2 * i <= 1 }";
    "{ S[i, j] : 0 <= i < 8 and 0 <= j < 8 }";
    "{ S[i, j] : 4 <= i < 12 and 0 <= j < 8 }";
    "{ S[o, i] : 4 * o <= i and i < 4 * o + 4 and 0 <= i < 12 }";
    "{ S[o] : 0 <= o <= 2 }";
    "{ S[i] : 0 <= i < 12 }";
    "{ S[i, j] : 0 <= i < 4 and 0 <= j <= i }";
    "[N] -> { S[i] : 0 <= i < N }";
    "{ S[i, j] : 3 <= i < 10 and i <= j and j < 2 * i }";
    "{ S[i] : 3 <= i < 6 }";
    "{ A[x] : 2 <= x < 7 }";
    "{ A[x] : 10 <= x < 14 }";
    "{ T[o0, o1] : o0 = 1 and o1 = 0 }";
    "{ T[o0, o1] : o0 = 1 and o1 = 1 }";
    "{ A[x, y] : 2 <= x <= 5 and 0 <= y <= 3 }";
    "{ A[x, y] : 2 <= x <= 5 and 2 <= y <= 5 }";
    "{ S0[h, w] : 2 <= h <= 5 and 0 <= w <= 3 }";
    "{ S[i, j] : 0 <= i < 2 and 0 <= j < 2 }"
  ]

let bmap_corpus =
  [ "{ S[i] -> A[i + 2] : 0 <= i < 5 }";
    "{ S[i] -> A[i + 5] : 0 <= i < 4 }";
    "{ S[i] -> A[2 * i] : 0 <= i < 4 }";
    "{ S[i] -> T[i + 1] : 0 <= i < 10 }";
    "{ T[j] -> U[2 * j] : j >= 3 }";
    "{ S[i] -> U[k] : k = 2 * i + 2 and 2 <= i < 10 }";
    "{ S[i] -> A[i + 10] }";
    "{ S[h, w] -> A[x, y] : x = h + 1 and y = w }";
    "{ S2[h, w, kh, kw] -> T[o0, o1] : 2 * o0 <= h and h < 2 * o0 + 2 and \
     2 * o1 <= w and w < 2 * o1 + 2 and 0 <= h <= 3 and 0 <= w <= 3 and \
     0 <= kh < 3 and 0 <= kw < 3 }";
    "{ S2[h, w, kh, kw] -> A[x, y] : x = h + kh and y = w + kw and \
     0 <= h <= 3 and 0 <= w <= 3 and 0 <= kh < 3 and 0 <= kw < 3 }";
    "{ T[o0, o1] -> A[x, y] : 0 <= o0 < 2 and 0 <= o1 < 2 and \
     2 * o0 <= x and x < 2 * o0 + 4 and 2 * o1 <= y and y < 2 * o1 + 4 and \
     0 <= x < 6 and 0 <= y < 6 }";
    "{ A[x, y] -> S0[h, w] : h = x and w = y and 0 <= x < 6 and 0 <= y < 6 }";
    "{ T[o] -> A[x] : 4 * o <= x and x <= 4 * o + 3 and 0 <= o < 4 }";
    "{ T[o] -> A[x] : 4 * o + 1 <= x and x <= 4 * o + 4 and 0 <= o < 4 }";
    "{ T[o] -> A[x] : 4 * o <= x and x <= 4 * o + 4 and 0 <= o < 4 }"
  ]

let iset_corpus =
  [ "{ A[i] : 0 <= i < 3; B[j] : 0 <= j < 2 }";
    "{ S[i] : 0 <= i < 3 or 10 <= i < 12 }";
    "{ S[i] : 0 <= i < 10 or 2 <= i < 5 }"
  ]

let test_roundtrip_bsets () =
  List.iter
    (fun lit ->
      let s = Parse.bset lit in
      let printed = Bset.to_string s in
      let s2 = Parse.bset printed in
      check bool (Printf.sprintf "semantics of %s" lit) true
        (Bset.is_subset s s2 && Bset.is_subset s2 s);
      check Alcotest.string (Printf.sprintf "fixpoint of %s" lit) printed
        (Bset.to_string s2))
    bset_corpus

let test_roundtrip_bmaps () =
  List.iter
    (fun lit ->
      let m = Parse.bmap lit in
      let printed = Bmap.to_string m in
      let m2 = Parse.bmap printed in
      check bool (Printf.sprintf "semantics of %s" lit) true
        (Bmap.is_subset m m2 && Bmap.is_subset m2 m);
      check Alcotest.string (Printf.sprintf "fixpoint of %s" lit) printed
        (Bmap.to_string m2))
    bmap_corpus

let test_roundtrip_isets () =
  List.iter
    (fun lit ->
      let u = Parse.set lit in
      let printed = Iset.to_string u in
      let u2 = Parse.set printed in
      check bool (Printf.sprintf "semantics of %s" lit) true
        (Iset.is_equal u u2);
      check Alcotest.string (Printf.sprintf "fixpoint of %s" lit) printed
        (Iset.to_string u2))
    iset_corpus

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let range_gen = QCheck.Gen.int_range (-3) 5

(* Random basic set over 2 dims inside a small box, with 0-2 extra
   general constraints (coefficients in -2..2). *)
let gen_bset =
  QCheck.Gen.(
    let* lo0 = range_gen and* lo1 = range_gen in
    let* len0 = int_range 0 5 and* len1 = int_range 0 5 in
    let* extra = int_range 0 2 in
    let* coefs =
      list_repeat extra
        (let* a = int_range (-2) 2
         and* b = int_range (-2) 2
         and* c = int_range (-4) 4 in
         return (a, b, c))
    in
    let space = Space.set_space "S" [ "i"; "j" ] in
    let box =
      [ Cstr.ge [| 1; 0 |] (-lo0);
        Cstr.ge [| -1; 0 |] (lo0 + len0);
        Cstr.ge [| 0; 1 |] (-lo1);
        Cstr.ge [| 0; -1 |] (lo1 + len1)
      ]
    in
    let gen_cs = List.map (fun (a, b, c) -> Cstr.ge [| a; b |] c) coefs in
    return (Bset.make space (box @ gen_cs)))

let arb_bset = QCheck.make ~print:Bset.to_string gen_bset

let enumerate_box f =
  for i = -5 to 12 do
    for j = -5 to 12 do
      f [| i; j |]
    done
  done

let brute_points s =
  let acc = ref [] in
  enumerate_box (fun pt -> if Bset.contains s pt then acc := Array.copy pt :: !acc);
  !acc

let prop_intersect =
  QCheck.Test.make ~name:"intersect agrees with membership" ~count:200
    (QCheck.pair arb_bset arb_bset) (fun (a, b) ->
      let i = Bset.intersect a b in
      let ok = ref true in
      enumerate_box (fun pt ->
          let expected = Bset.contains a pt && Bset.contains b pt in
          if Bset.contains i pt <> expected then ok := false);
      !ok)

let prop_subtract =
  QCheck.Test.make ~name:"subtract agrees with membership" ~count:200
    (QCheck.pair arb_bset arb_bset) (fun (a, b) ->
      let d = Iset.subtract (Iset.of_bset a) (Iset.of_bset b) in
      let ok = ref true in
      enumerate_box (fun pt ->
          let expected = Bset.contains a pt && not (Bset.contains b pt) in
          if Iset.contains d ~tuple:"S" pt <> expected then ok := false);
      !ok)

let prop_card =
  QCheck.Test.make ~name:"card equals brute force count" ~count:200 arb_bset
    (fun s -> Bset.card s = List.length (brute_points s))

let prop_empty =
  QCheck.Test.make ~name:"emptiness agrees with brute force" ~count:200 arb_bset
    (fun s -> Bset.is_empty s = (brute_points s = []))

let prop_sample =
  QCheck.Test.make ~name:"sample is a member iff non-empty" ~count:200 arb_bset
    (fun s ->
      match Bset.sample s with
      | Some pt -> Bset.contains s pt
      | None -> brute_points s = [])

let prop_subset =
  QCheck.Test.make ~name:"is_subset agrees with brute force" ~count:200
    (QCheck.pair arb_bset arb_bset) (fun (a, b) ->
      let brute =
        List.for_all (fun pt -> Bset.contains b pt) (brute_points a)
      in
      Bset.is_subset a b = brute)

let prop_project =
  QCheck.Test.make ~name:"projection agrees with brute force" ~count:200 arb_bset
    (fun s ->
      match Bset.project_dims s ~first:1 ~count:1 with
      | proj ->
          let ok = ref true in
          for i = -5 to 12 do
            let expected = ref false in
            for j = -5 to 12 do
              if Bset.contains s [| i; j |] then expected := true
            done;
            if Bset.contains proj [| i |] <> !expected then ok := false
          done;
          !ok
      | exception Fm.Inexact _ -> QCheck.assume_fail ())

let prop_box_hull =
  QCheck.Test.make ~name:"box hull contains all points" ~count:200 arb_bset
    (fun s ->
      QCheck.assume (not (Bset.is_empty s));
      let box = Bset.box_hull s in
      List.for_all
        (fun pt ->
          pt.(0) >= fst box.(0) && pt.(0) <= snd box.(0)
          && pt.(1) >= fst box.(1) && pt.(1) <= snd box.(1))
        (brute_points s))

(* Random separable functional map: S[i,j] -> A[a*i + c, e*j + f] over a
   random domain box (the shift/flip access class used throughout the
   benchmarks). Checks compose/reverse/apply against brute force. *)
let gen_fmap =
  QCheck.Gen.(
    let* a = oneofl [ -1; 1 ] and* c = int_range (-3) 3 in
    let* e = oneofl [ -1; 1 ] and* f = int_range (-3) 3 in
    let* s = gen_bset in
    let m =
      Bmap.from_affs ~in_tuple:"S" ~in_dims:[ "i"; "j" ] ~out_tuple:"A"
        [ ("x", Aff.add (Aff.dim ~coef:a 0) (Aff.const c));
          ("y", Aff.add (Aff.dim ~coef:e 1) (Aff.const f))
        ]
    in
    return ((a, 0, c, 0, e, f), Bmap.intersect_domain m s))

let arb_fmap =
  QCheck.make
    ~print:(fun (_, m) -> Bmap.to_string m)
    gen_fmap

let prop_apply_set =
  QCheck.Test.make ~name:"apply_set agrees with pointwise image" ~count:200
    arb_fmap (fun ((a, b, c, d, e, f), m) ->
      let dom = Bmap.domain m in
      let img = Bmap.apply_set dom m in
      let ok = ref true in
      enumerate_box (fun pt ->
          if Bset.contains dom pt then begin
            let x = (a * pt.(0)) + (b * pt.(1)) + c
            and y = (d * pt.(0)) + (e * pt.(1)) + f in
            if not (Bset.contains img [| x; y |]) then ok := false
          end);
      !ok)

let prop_reverse_involution =
  QCheck.Test.make ~name:"reverse is an involution" ~count:100 arb_fmap
    (fun (_, m) ->
      Bmap.is_subset (Bmap.reverse (Bmap.reverse m)) m
      && Bmap.is_subset m (Bmap.reverse (Bmap.reverse m)))


(* ------------------------------------------------------------------ *)
(* Simple hull and hull compression                                    *)
(* ------------------------------------------------------------------ *)

let gen_fmap_pair =
  QCheck.Gen.(
    let* (_, a) = gen_fmap in
    let* (_, b) = gen_fmap in
    return (a, b))

let arb_fmap_pair =
  QCheck.make
    ~print:(fun (a, b) -> Bmap.to_string a ^ " | " ^ Bmap.to_string b)
    gen_fmap_pair

let prop_simple_hull_sound =
  QCheck.Test.make ~name:"simple hull contains both operands" ~count:150
    arb_fmap_pair (fun (a, b) ->
      let h = Bmap.simple_hull a b in
      Bmap.is_subset a h && Bmap.is_subset b h)

let prop_hull_compress_sound =
  QCheck.Test.make ~name:"hull compression over-approximates the union"
    ~count:150 arb_fmap_pair (fun (a, b) ->
      let u = Imap.of_bmaps [ a; b ] in
      let c = Imap.hull_compress u in
      Imap.is_subset u c)

let test_hull_exact_for_taps () =
  (* contiguous stencil-tap footprints: the hull is the exact union *)
  let a = Parse.bmap "{ T[o] -> A[x] : 4 * o <= x and x <= 4 * o + 3 and 0 <= o < 4 }" in
  let b = Parse.bmap "{ T[o] -> A[x] : 4 * o + 1 <= x and x <= 4 * o + 4 and 0 <= o < 4 }" in
  let h = Bmap.simple_hull a b in
  let expected =
    Parse.bmap "{ T[o] -> A[x] : 4 * o <= x and x <= 4 * o + 4 and 0 <= o < 4 }"
  in
  check bool "tap hull exact" true
    (Bmap.is_subset h expected && Bmap.is_subset expected h)

(* ------------------------------------------------------------------ *)
(* Algebraic laws                                                      *)
(* ------------------------------------------------------------------ *)

let prop_compose_assoc =
  (* shift maps compose associatively *)
  QCheck.Test.make ~name:"apply_range is associative on shift maps" ~count:100
    QCheck.(triple (int_range (-3) 3) (int_range (-3) 3) (int_range (-3) 3))
    (fun (s1, s2, s3) ->
      let shift t1 t2 k =
        Bmap.from_affs ~in_tuple:t1 ~in_dims:[ "i" ] ~out_tuple:t2
          [ ("j", Aff.add_const (Aff.dim 0) k) ]
        |> fun m ->
        Bmap.intersect_domain m (Parse.bset ("{ " ^ t1 ^ "[i] : 0 <= i < 10 }"))
      in
      let f = shift "A" "B" s1 and g = shift "B" "C" s2 and h = shift "C" "D" s3 in
      let left = Bmap.apply_range (Bmap.apply_range f g) h in
      let right = Bmap.apply_range f (Bmap.apply_range g h) in
      Bmap.is_subset left right && Bmap.is_subset right left)

let prop_union_card =
  QCheck.Test.make ~name:"card of union = inclusion-exclusion" ~count:150
    (QCheck.pair arb_bset arb_bset) (fun (a, b) ->
      let u = Iset.union (Iset.of_bset a) (Iset.of_bset b) in
      let inter = Bset.intersect a b in
      Iset.card u = Bset.card a + Bset.card b - Bset.card inter)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"to_string/parse round-trip preserves the set"
    ~count:150 arb_bset (fun s ->
      QCheck.assume (not (Bset.is_empty s));
      let s2 = Parse.bset (Bset.to_string s) in
      Bset.is_subset s s2 && Bset.is_subset s2 s)

let qcheck_extra =
  List.map QCheck_alcotest.to_alcotest
    [ prop_simple_hull_sound;
      prop_hull_compress_sound;
      prop_compose_assoc;
      prop_union_card;
      prop_print_parse_roundtrip
    ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_intersect;
      prop_subtract;
      prop_card;
      prop_empty;
      prop_sample;
      prop_subset;
      prop_project;
      prop_box_hull;
      prop_apply_set;
      prop_reverse_involution
    ]

(* ------------------------------------------------------------------ *)
(* Fm                                                                  *)
(* ------------------------------------------------------------------ *)

(* The real shadow certifies emptiness; it does not decide integer
   emptiness, which [Fm.is_empty] does. *)
let test_real_shadow_empty () =
  let contradiction = [ Cstr.ge [| 1 |] (-1); Cstr.ge [| -1 |] 0 ] in
  check bool "x >= 1 and x <= 0" true
    (Fm.real_shadow_empty ~nvars:1 contradiction);
  let box =
    [ Cstr.ge [| 1; 0 |] 0;
      Cstr.ge [| -1; 0 |] 3;
      Cstr.ge [| 0; 1 |] 0;
      Cstr.ge [| 0; -1 |] 3
    ]
  in
  check bool "4x4 box" false (Fm.real_shadow_empty ~nvars:2 box);
  let odd = [ Cstr.eq [| 2; -2 |] (-1) ] in
  check bool "2x = 2y + 1, real shadow" false
    (Fm.real_shadow_empty ~nvars:2 odd);
  check bool "2x = 2y + 1, integer emptiness" true (Fm.is_empty ~nvars:2 odd)

(* The enumeration fallback bounds variables in index order and stops
   at the first unbounded one: x0 is free, so bounding it (eliminating
   x1 and x2) is the only work before Inexact. *)
let test_enum_stops_at_unbounded () =
  let sys =
    [ Cstr.ge [| 0; 1; 0 |] 0;
      Cstr.ge [| 0; -1; 0 |] 3;
      Cstr.ge [| 0; 0; 1 |] 0;
      Cstr.ge [| 0; 0; -1 |] 3
    ]
  in
  Obs.reset ();
  Obs.enable ();
  (match Fm.iter_points_by_enum ~nvars:3 sys (fun _ -> ()) with
  | () -> Alcotest.fail "enumerated a system with a free variable"
  | exception Fm.Inexact _ -> ());
  check int "fm.eliminate calls" 2 (Obs.counter_value "fm.eliminate")

let () =
  Harness.run "presburger"
    [ ( "vec",
        [ Alcotest.test_case "gcd and division" `Quick test_vec ] );
      ( "cstr",
        [ Alcotest.test_case "simplify" `Quick test_cstr_simplify ] );
      ( "fm",
        [ Alcotest.test_case "real_shadow_empty" `Quick test_real_shadow_empty;
          Alcotest.test_case "enumeration stops at unbounded" `Quick
            test_enum_stops_at_unbounded
        ] );
      ( "bset",
        [ Alcotest.test_case "emptiness" `Quick test_set_empty;
          Alcotest.test_case "intersect/subtract/union" `Quick test_set_ops;
          Alcotest.test_case "tiling-pattern projection" `Quick test_project_tiling_pattern;
          Alcotest.test_case "box and card" `Quick test_box_and_card;
          Alcotest.test_case "bind_params" `Quick test_bind_params;
          Alcotest.test_case "sample" `Quick test_sample;
          Alcotest.test_case "subtract pieces" `Quick test_subtract_exact
        ] );
      ( "bmap",
        [ Alcotest.test_case "domain/range" `Quick test_map_domain_range;
          Alcotest.test_case "reverse" `Quick test_map_reverse;
          Alcotest.test_case "stride-2 range raises" `Quick test_stride_range_raises;
          Alcotest.test_case "compose" `Quick test_map_compose;
          Alcotest.test_case "apply set" `Quick test_map_apply_set;
          Alcotest.test_case "from_affs" `Quick test_from_affs;
          Alcotest.test_case "lex_lt" `Quick test_lex_lt
        ] );
      ( "paper-example",
        [ Alcotest.test_case "relation (4): tile footprints" `Quick test_paper_relation_4;
          Alcotest.test_case "relation (6): extension schedule" `Quick test_paper_relation_6
        ] );
      ( "unions",
        [ Alcotest.test_case "tuples" `Quick test_union_tuples;
          Alcotest.test_case "disjunction" `Quick test_union_or;
          Alcotest.test_case "coalesce" `Quick test_coalesce
        ] );
      ( "hull",
        [ Alcotest.test_case "tap hull exact" `Quick test_hull_exact_for_taps ] );
      ( "parse-roundtrip",
        [ Alcotest.test_case "bset corpus" `Quick test_roundtrip_bsets;
          Alcotest.test_case "bmap corpus" `Quick test_roundtrip_bmaps;
          Alcotest.test_case "iset corpus" `Quick test_roundtrip_isets
        ] );
      ("properties", qcheck_cases @ qcheck_extra)
    ]
