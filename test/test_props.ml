(* Property-based differential tests for the presburger substrate.

   Unlike the QCheck properties in test_presburger.ml (which compare
   single operations against brute-force membership), these properties
   check *algebraic laws across operations* on randomly generated
   systems — the places where the memoization and canonicalization
   layers could silently disagree with the uncached semantics:

   - subtract/intersect satisfy the De Morgan dualities over unions;
   - project_dims agrees with the Fm.iter_points_by_enum ground truth;
   - apply_range of two functional maps equals the pointwise image;
   - remove_redundant is idempotent (bit-identical second pass) and
     semantics-preserving;
   - every derived result is bit-identical with the Fm memo caches
     enabled (cold and hot) and disabled.

   Seeds thread exactly as in test_fuzz: `--seed N` (stripped before
   Alcotest parses argv) offsets every generator seed, and each failure
   message prints the seed that reproduces it alone:
     dune exec test/test_props.exe -- --seed 1000 *)

open Presburger

let base_seed, argv = Harness.seed_from_argv ()

(* ------------------------------------------------------------------ *)
(* Generators (hand-rolled over Random.State so a single int seed      *)
(* reproduces a case without QCheck's shrinking machinery)             *)
(* ------------------------------------------------------------------ *)

let space2 = Space.set_space "S" [ "i"; "j" ]

(* Random basic set over 2 dims: a small bounding box plus 0-2 general
   constraints with coefficients in -2..2. Same shape family as the
   QCheck generator in test_presburger.ml. *)
let gen_bset st =
  let lo () = Random.State.int st 9 - 3 in
  let len () = Random.State.int st 6 in
  let lo0 = lo () and lo1 = lo () in
  let box =
    [ Cstr.ge [| 1; 0 |] (-lo0);
      Cstr.ge [| -1; 0 |] (lo0 + len ());
      Cstr.ge [| 0; 1 |] (-lo1);
      Cstr.ge [| 0; -1 |] (lo1 + len ())
    ]
  in
  let extra =
    List.init (Random.State.int st 3) (fun _ ->
        let a = Random.State.int st 5 - 2
        and b = Random.State.int st 5 - 2
        and c = Random.State.int st 9 - 4 in
        Cstr.ge [| a; b |] c)
  in
  Bset.make space2 (box @ extra)

(* Random separable functional map in_tuple[i,j] -> out_tuple[±i + c,
   ±j + f], domain-restricted to a random set. Returns the map and the
   point function it denotes. *)
let gen_fmap st ~in_tuple ~out_tuple =
  let sign () = if Random.State.bool st then 1 else -1 in
  let shift () = Random.State.int st 7 - 3 in
  let a = sign () and c = shift () and e = sign () and f = shift () in
  let m =
    Bmap.from_affs ~in_tuple ~in_dims:[ "i"; "j" ] ~out_tuple
      [ ("x", Aff.add (Aff.dim ~coef:a 0) (Aff.const c));
        ("y", Aff.add (Aff.dim ~coef:e 1) (Aff.const f))
      ]
  in
  let dom = Bset.set_tuple (gen_bset st) in_tuple in
  let fn pt = [| (a * pt.(0)) + c; (e * pt.(1)) + f |] in
  (Bmap.intersect_domain m dom, dom, fn)

let enumerate_box f =
  for i = -8 to 12 do
    for j = -8 to 12 do
      f [| i; j |]
    done
  done

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* a \ (b ∩ c) = (a \ b) ∪ (a \ c)  and  a \ (b ∪ c) = (a \ b) ∩ (a \ c) *)
let prop_de_morgan st =
  let a = Iset.of_bset (gen_bset st)
  and b = Iset.of_bset (gen_bset st)
  and c = Iset.of_bset (gen_bset st) in
  Iset.is_equal
    (Iset.subtract a (Iset.intersect b c))
    (Iset.union (Iset.subtract a b) (Iset.subtract a c))
  && Iset.is_equal
       (Iset.subtract a (Iset.union b c))
       (Iset.intersect (Iset.subtract a b) (Iset.subtract a c))

(* project_dims against the enumerated ground truth: the projection
   onto i contains exactly the i-values of the enumerated points. *)
let prop_project_vs_enum st =
  let s = gen_bset st in
  match Bset.project_dims s ~first:1 ~count:1 with
  | exception Fm.Inexact _ -> true (* nothing to check; exactness declined *)
  | proj ->
      if Bset.is_empty s then Bset.is_empty proj
      else begin
        let truth = Hashtbl.create 16 in
        Fm.iter_points_by_enum ~nvars:2 s.Bset.cstrs (fun pt ->
            Hashtbl.replace truth pt.(0) ());
        let ok = ref true in
        for i = -8 to 12 do
          if Bset.contains proj [| i |] <> Hashtbl.mem truth i then ok := false
        done;
        !ok
      end

(* apply_range of two functional maps is the pointwise composition:
   the composed relation holds exactly the pairs ((i,j), g(f(i,j)))
   with (i,j) in dom f and f(i,j) in dom g. *)
let prop_apply_range_pointwise st =
  let m1, dom1, f = gen_fmap st ~in_tuple:"S" ~out_tuple:"T" in
  let m2, dom2, g = gen_fmap st ~in_tuple:"T" ~out_tuple:"U" in
  match Bmap.apply_range m1 m2 with
  | exception Fm.Inexact _ -> true
  | composed ->
      let view = Bmap.to_set_view composed in
      let expected = ref 0 in
      let ok = ref true in
      enumerate_box (fun pt ->
          let mid = f pt in
          if Bset.contains dom1 pt && Bset.contains dom2 mid then begin
            incr expected;
            let out = g mid in
            if not (Bset.contains view [| pt.(0); pt.(1); out.(0); out.(1) |])
            then ok := false
          end);
      (* membership of every expected pair, and nothing else: the map is
         functional, so the view has exactly one point per domain point *)
      !ok && Bset.card view = !expected

(* remove_redundant: running it twice returns the identical constraint
   list (canonical order makes this byte-comparable), and the pruned
   system has the same points as the original. *)
let prop_remove_redundant_idempotent st =
  let s = gen_bset st in
  match Fm.remove_redundant ~nvars:2 s.Bset.cstrs with
  | exception Fm.Inexact _ -> true
  | r1 ->
      let r2 = Fm.remove_redundant ~nvars:2 r1 in
      let pruned = Bset.make space2 r1 in
      List.equal Cstr.equal r1 r2
      && Bset.is_subset s pruned && Bset.is_subset pruned s

(* The memo caches are invisible: a battery of derived results is
   bit-identical computed cold (empty caches), hot (second run over
   warm caches) and with caching disabled entirely. *)
let prop_cached_equals_uncached st =
  let a = gen_bset st and b = gen_bset st in
  let battery () =
    let i = Bset.intersect a b in
    let proj =
      try Bset.to_string (Bset.project_dims a ~first:0 ~count:1)
      with Fm.Inexact _ -> "<inexact>"
    in
    ( Bset.to_string i,
      Bset.is_empty i,
      Fm.real_shadow_empty ~nvars:(Bset.width i) i.Bset.cstrs,
      Bset.is_subset a b,
      proj,
      Bset.to_string (Bset.gist_simplify a),
      Iset.to_string (Iset.subtract (Iset.of_bset a) (Iset.of_bset b)) )
  in
  let was_enabled = Fm_cache.is_enabled () in
  Fm_cache.set_enabled true;
  Fm_cache.reset ();
  let cold = battery () in
  let hot = battery () in
  Fm_cache.set_enabled false;
  Fm_cache.reset ();
  let uncached = battery () in
  Fm_cache.set_enabled was_enabled;
  cold = hot && cold = uncached

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let iterate name count prop =
  Alcotest.test_case name `Quick (fun () ->
      for k = 0 to count - 1 do
        let seed = base_seed + k in
        let st = Random.State.make [| 0x5eed; seed |] in
        if not (prop st) then
          Alcotest.failf "%s violated (reproduce with --seed %d)" name seed
      done)

let () =
  if base_seed <> 0 then
    Printf.printf "props: seed offset %d (reproduce with --seed %d)\n%!"
      base_seed base_seed;
  Harness.run ~argv "props"
    [ ( "laws",
        [ iterate "de morgan over subtract/intersect" 150 prop_de_morgan;
          iterate "project_dims vs enumeration" 200 prop_project_vs_enum;
          iterate "apply_range vs pointwise image" 150 prop_apply_range_pointwise;
          iterate "remove_redundant idempotent" 200 prop_remove_redundant_idempotent
        ] );
      ( "caching",
        [ iterate "cached results bit-identical to uncached" 100
            prop_cached_equals_uncached
        ] )
    ]
