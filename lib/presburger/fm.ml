exception Inexact of string

exception Infeasible

(* ------------------------------------------------------------------ *)
(* Syntactic simplification                                            *)
(* ------------------------------------------------------------------ *)

(* Key for grouping parallel constraints: the normalized coefficient
   vector. Equalities are canonicalized so the first nonzero coefficient
   is positive. *)
let canon_eq (c : Cstr.t) =
  let rec first_sign i =
    if i >= Array.length c.coef then 0
    else if c.coef.(i) <> 0 then c.coef.(i)
    else first_sign (i + 1)
  in
  if first_sign 0 < 0 then { c with coef = Vec.scale (-1) c.coef; cst = -c.cst }
  else c

let dedup cstrs =
  (* keys are the coefficient arrays themselves (structural hashing
     handles arrays): no per-constraint list copy on this hot path *)
  let tbl : (Cstr.kind * int array, int) Hashtbl.t = Hashtbl.create 16 in
  let eqs = ref [] and ges = ref [] in
  let contradiction = ref false in
  let visit c =
    match Cstr.simplify c with
    | Cstr.Trivial_true -> ()
    | Cstr.Trivial_false -> contradiction := true
    | Cstr.Keep c -> (
        let c = if c.kind = Eq then canon_eq c else c in
        let key = (c.Cstr.kind, c.coef) in
        match Hashtbl.find_opt tbl key with
        | None ->
            Hashtbl.add tbl key c.cst;
            if c.kind = Eq then eqs := c :: !eqs else ges := c :: !ges
        | Some cst0 -> (
            match c.kind with
            | Eq -> if cst0 <> c.cst then contradiction := true
            | Ge ->
                (* f + cst >= 0: smaller cst is tighter *)
                if c.cst < cst0 then begin
                  Hashtbl.replace tbl key c.cst;
                  ges :=
                    { c with cst = c.cst }
                    :: List.filter
                         (fun (d : Cstr.t) ->
                           d.coef <> c.coef || d.cst <> cst0)
                         !ges
                end))
  in
  List.iter visit cstrs;
  if !contradiction then None
  else
    (* detect f + a >= 0 and -f + b >= 0 with a + b < 0 *)
    let bad =
      List.exists
        (fun (c : Cstr.t) ->
          match Hashtbl.find_opt tbl (Cstr.Ge, Vec.scale (-1) c.coef) with
          | Some cst' -> c.cst + cst' < 0
          | None -> false)
        !ges
    in
    if bad then None
    else
      (* Canonical order: equalities first, then lexicographic on the
         coefficients. Makes dedup's output independent of the input
         order, so memo keys built from it are order-insensitive and
         to_string of equal systems is deterministic. *)
      Some (List.sort Cstr.compare (List.rev_append !eqs !ges))

(* ------------------------------------------------------------------ *)
(* Elimination                                                         *)
(* ------------------------------------------------------------------ *)

(* Substitute variable [var] using equality [eq] (with eq.coef.(var) = c,
   |c| >= 1) into constraint [d]. The result has a zero column at [var].
   For |c| > 1 the substitution scales [d] by |c|, which is sound for both
   kinds. *)
let subst_with_eq ~var (eq : Cstr.t) (d : Cstr.t) : Cstr.t =
  let c = eq.coef.(var) in
  let e = d.coef.(var) in
  if e = 0 then d
  else
    (* |c| * d - sign * e * eq, choosing sign so the var column cancels
       and the multiplier of d stays positive. *)
    let coef = Vec.combine (abs c) d.coef (-e * (if c > 0 then 1 else -1)) eq.coef in
    let cst = (abs c * d.cst) - (e * (if c > 0 then 1 else -1) * eq.cst) in
    assert (coef.(var) = 0);
    { d with coef; cst }

let pair_shadow ~exact ~var (l : Cstr.t) (u : Cstr.t) : Cstr.t =
  let a = l.coef.(var) and b = -u.coef.(var) in
  assert (a > 0 && b > 0);
  let coef = Vec.combine b l.coef a u.coef in
  let cst = (b * l.cst) + (a * u.cst) in
  assert (coef.(var) = 0);
  let real : Cstr.t = { kind = Ge; coef; cst } in
  if (not exact) || a = 1 || b = 1 then real
  else
    let dark = { real with cst = cst - ((a - 1) * (b - 1)) } in
    let same =
      match (Cstr.simplify real, Cstr.simplify dark) with
      | Cstr.Trivial_true, Cstr.Trivial_true -> true
      | Cstr.Keep r, Cstr.Keep d -> r.coef = d.coef && r.cst = d.cst
      | Cstr.Trivial_false, Cstr.Trivial_false -> true
      | _ -> false
    in
    if same then real
    else
      raise
        (Inexact
           (Printf.sprintf "FM pair with coefficients %d,%d on var %d" a b var))

let eliminate_uncached ~exact ~var cstrs =
  (* Prefer an equality mentioning var, the one with the smallest
     |coefficient|. *)
  let eq_candidates =
    List.filter (fun (c : Cstr.t) -> c.kind = Eq && c.coef.(var) <> 0) cstrs
  in
  let best_eq =
    List.fold_left
      (fun acc (c : Cstr.t) ->
        match acc with
        | None -> Some c
        | Some (b : Cstr.t) ->
            if abs c.coef.(var) < abs b.coef.(var) then Some c else acc)
      None eq_candidates
  in
  match best_eq with
  | Some eq ->
      let c = eq.coef.(var) in
      if abs c <> 1 && exact then begin
        (* Exact only if the rest of the equality is divisible by c, in
           which case var = -rest/c is always integral. *)
        let divisible =
          eq.cst mod c = 0
          && Array.for_all
               (fun a -> a mod c = 0)
               (Array.mapi (fun i a -> if i = var then 0 else a) eq.coef)
        in
        if not divisible then
          raise (Inexact (Printf.sprintf "equality coefficient %d on var %d" c var))
      end;
      List.filter_map
        (fun (d : Cstr.t) ->
          if d == eq then None else Some (subst_with_eq ~var eq d))
        cstrs
  | None ->
      let lowers, uppers, neutral =
        List.fold_left
          (fun (lo, up, nu) (c : Cstr.t) ->
            if c.coef.(var) > 0 then (c :: lo, up, nu)
            else if c.coef.(var) < 0 then (lo, c :: up, nu)
            else (lo, up, c :: nu))
          ([], [], []) cstrs
      in
      let pairs =
        List.concat_map
          (fun l -> List.map (fun u -> pair_shadow ~exact ~var l u) uppers)
          lowers
      in
      List.rev_append neutral pairs

let false_cstr n = Cstr.ge (Array.make n 0) (-1)

(* Canonical lists are interned as physical representatives (Hc), so
   re-canonicalizing a list that already came out of here — every
   Bset/Bmap constructor feeds its own output back on the next
   operation — is a single pointer-keyed probe instead of a full
   dedup + sort. *)
let canonical ~nvars cstrs =
  match Hc.find_rep cstrs with
  | Some _ -> cstrs
  | None -> (
      match dedup cstrs with
      | None -> (Hc.intern_rep [ false_cstr nvars ]).Hc.sys_cstrs
      | Some cs -> (Hc.intern_rep cs).Hc.sys_cstrs)

(* ------------------------------------------------------------------ *)
(* Cheap fast paths                                                    *)
(* ------------------------------------------------------------------ *)

(* The origin satisfies every constraint: the system is non-empty
   without any elimination. Catches universe-like systems and the many
   footprint sets whose bounds all start at 0. *)
let sat_at_zero cstrs =
  List.for_all
    (fun (c : Cstr.t) ->
      match c.kind with Cstr.Ge -> c.cst >= 0 | Cstr.Eq -> c.cst = 0)
    cstrs

(* Per-variable bounds read off the single-variable constraints only (a
   sound partial box hull, no elimination): when some variable's unit
   lower bound exceeds its unit upper bound the system is empty. This is
   the disjointness test that makes intersections of far-apart tiles
   cheap — their box constraints contradict directly. *)
let box_trivially_empty ~nvars cstrs =
  let lo = Array.make nvars min_int and hi = Array.make nvars max_int in
  let infeasible = ref false in
  List.iter
    (fun (c : Cstr.t) ->
      match Cstr.single_var c with
      | None -> ()
      | Some v -> (
          let a = c.coef.(v) in
          match c.kind with
          | Cstr.Ge ->
              if a > 0 then lo.(v) <- max lo.(v) (Vec.ceil_div (-c.cst) a)
              else hi.(v) <- min hi.(v) (Vec.floor_div c.cst (-a))
          | Cstr.Eq ->
              if c.cst mod a <> 0 then infeasible := true
              else begin
                let x = -c.cst / a in
                lo.(v) <- max lo.(v) x;
                hi.(v) <- min hi.(v) x
              end))
    cstrs;
  if not !infeasible then
    for v = 0 to nvars - 1 do
      if lo.(v) > hi.(v) then infeasible := true
    done;
  !infeasible

(* ------------------------------------------------------------------ *)
(* Memoized entry points                                               *)
(* ------------------------------------------------------------------ *)

(* Caches are keyed on hash-consed system ids (Hc): structurally equal
   systems share one id, and dedup's canonical ordering makes the id
   insensitive to constraint order. An Inexact outcome is cached like a
   value so repeated failing projections don't redo the pair work. *)

type elim_entry = Elim_ok of Cstr.t list | Elim_inexact of string

let elim_cache : (int * int * bool, elim_entry) Fm_cache.t =
  Fm_cache.create "eliminate"

let empty_cache : (int, bool) Fm_cache.t = Fm_cache.create "is_empty"

let redundant_cache : (int, Cstr.t list) Fm_cache.t =
  Fm_cache.create "remove_redundant"

let shadow_cache : (int * int, bool) Fm_cache.t =
  Fm_cache.create "real_shadow_empty"

let eliminate ~exact ~var cstrs =
  Obs.count "fm.eliminate";
  Obs.observe_int "fm.system_size" (List.length cstrs);
  let sys = Hc.intern cstrs in
  match
    Fm_cache.find_or_add elim_cache (sys.Hc.sys_id, var, exact) (fun () ->
        match eliminate_uncached ~exact ~var sys.Hc.sys_cstrs with
        | r -> Elim_ok r
        | exception Inexact msg -> Elim_inexact msg)
  with
  | Elim_ok r -> r
  | Elim_inexact msg -> raise (Inexact msg)

(* Eliminate cheapest-first: variables with a unit-coefficient equality
   are free (substitution is always exact), then pure-inequality
   variables by FM pair count, then non-unit equalities last (their
   exactness depends on divisibility). *)
let eliminate_many ~exact ~vars cstrs =
  let n = match cstrs with c :: _ -> Cstr.nvars c | [] -> 0 in
  let rec go vars cstrs =
    match vars with
    | [] -> cstrs
    | _ ->
        let cost v =
          let unit_eq, any_eq, lo, up =
            List.fold_left
              (fun (ue, ae, lo, up) (c : Cstr.t) ->
                if c.Cstr.kind = Eq && abs c.coef.(v) = 1 then (true, true, lo, up)
                else if c.Cstr.kind = Eq && c.coef.(v) <> 0 then (ue, true, lo, up)
                else if c.coef.(v) > 0 then (ue, ae, lo + 1, up)
                else if c.coef.(v) < 0 then (ue, ae, lo, up + 1)
                else (ue, ae, lo, up))
              (false, false, 0, 0) cstrs
          in
          if unit_eq then -1
          else if any_eq then 1_000_000
          else lo * up
        in
        let v =
          List.fold_left (fun b v -> if cost v < cost b then v else b) (List.hd vars) vars
        in
        let rest = List.filter (fun x -> x <> v) vars in
        match dedup (eliminate ~exact ~var:v cstrs) with
        | None -> [ false_cstr n ]
        | Some c -> go rest c
  in
  go vars cstrs

(* Per-variable constant bounds of the rational relaxation, used by the
   enumeration fallbacks; an infeasible relaxation gives [(0, -1)]. The
   bounds are computed in index order, and the first variable unbounded
   on either side raises Inexact without bounding the rest. *)
let rational_box ~nvars cstrs =
  let bound_of v =
    let others = List.init nvars (fun i -> i) |> List.filter (fun i -> i <> v) in
    match dedup (eliminate_many ~exact:false ~vars:others cstrs) with
    | None -> (0, -1)
    | Some cs ->
        if List.exists (fun c -> Cstr.simplify c = Cstr.Trivial_false) cs then
          (0, -1)
        else begin
          let lowers, uppers =
            List.fold_left
              (fun (lo, up) (c : Cstr.t) ->
                let a = c.Cstr.coef.(v) in
                match c.kind with
                | Cstr.Eq when a <> 0 ->
                    let x = Vec.floor_div (-c.cst) a in
                    ((x :: lo), (x :: up))
                | Cstr.Ge when a > 0 -> (Vec.ceil_div (-c.cst) a :: lo, up)
                | Cstr.Ge when a < 0 -> (lo, Vec.floor_div c.cst (-a) :: up)
                | _ -> (lo, up))
              ([], []) cs
          in
          match (lowers, uppers) with
          | [], _ | _, [] ->
              raise (Inexact "enumeration fallback on unbounded system")
          | _ ->
              ( List.fold_left max (List.hd lowers) lowers,
                List.fold_left min (List.hd uppers) uppers )
        end
  in
  Array.init nvars bound_of

exception Found of int array

(* Complete decision procedure for bounded systems: enumerate the
   rational box. Raises Inexact when some variable is unbounded. *)
let find_point_by_enum ~nvars cstrs =
  let bounds = rational_box ~nvars cstrs in
  let pt = Array.make nvars 0 in
  let rec go k =
    if k = nvars then begin
      if List.for_all (fun c -> Cstr.holds c pt) cstrs then raise (Found (Array.copy pt))
    end
    else
      let lo, hi = bounds.(k) in
      for v = lo to hi do
        pt.(k) <- v;
        go (k + 1)
      done
  in
  if nvars = 0 then
    if List.for_all (fun c -> Cstr.holds c [||]) cstrs then Some [||] else None
  else
    try
      go 0;
      None
    with Found p -> Some p

let iter_points_by_enum ~nvars cstrs f =
  let bounds = rational_box ~nvars cstrs in
  let pt = Array.make nvars 0 in
  let rec go k =
    if k = nvars then begin
      if List.for_all (fun c -> Cstr.holds c pt) cstrs then f pt
    end
    else
      let lo, hi = bounds.(k) in
      for v = lo to hi do
        pt.(k) <- v;
        go (k + 1)
      done
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Emptiness and sampling                                              *)
(* ------------------------------------------------------------------ *)

let all_vars nvars = List.init nvars (fun i -> i)

let is_empty_slow ~nvars cstrs =
      let residue =
        try `R (eliminate_many ~exact:true ~vars:(all_vars nvars) cstrs)
        with Inexact _ -> (
          (* fall back: the real shadow is an over-approximation, so an
             empty over-approximation certifies emptiness. *)
          match dedup (eliminate_many ~exact:false ~vars:(all_vars nvars) cstrs) with
          | None -> `Empty
          | Some r ->
              if List.exists (fun c -> Cstr.simplify c = Cstr.Trivial_false) r then `Empty
              else `Unknown)
      in
      match residue with
      | `Empty -> true
      | `Unknown -> (
          (* cannot certify exactly; enumerate if bounded, otherwise
             answer "not empty", which is the conservative direction for
             every caller (pieces are kept, subsets and implications are
             denied, fusion of shared spaces is refused). *)
          try find_point_by_enum ~nvars cstrs = None with Inexact _ -> false)
      | `R r ->
          List.exists
            (fun c ->
              match Cstr.simplify c with Cstr.Trivial_false -> true | _ -> false)
            r

(* Keyed on the raw list's interning, not its canonical form: with gcd
   tightening the residue depends on the elimination order, so a
   canonicalized system could answer differently. *)
let real_shadow_empty ~nvars cstrs =
  let sys = Hc.intern cstrs in
  Fm_cache.find_or_add shadow_cache (sys.Hc.sys_id, nvars) (fun () ->
      List.exists
        (fun c -> Cstr.simplify c = Cstr.Trivial_false)
        (eliminate_many ~exact:false ~vars:(all_vars nvars) sys.Hc.sys_cstrs))

let is_empty_canonical ~nvars (sys : Hc.sys) =
  match sys.Hc.sys_cstrs with
  | [] -> false
  | cstrs ->
      (* cheap certificates first; full elimination (memoized) last.
         A canonical contradiction is the lone all-zero constraint with
         negative constant, which box_trivially_empty never sees (no
         nonzero coefficient), so test it directly. *)
      let contradiction =
        match cstrs with
        | [ (c : Cstr.t) ] ->
            c.kind = Cstr.Ge && c.cst < 0
            && Array.for_all (( = ) 0) c.coef
        | _ -> false
      in
      if contradiction then true
      else if sat_at_zero cstrs then false
      else if box_trivially_empty ~nvars cstrs then true
      else
        Fm_cache.find_or_add empty_cache sys.Hc.sys_id (fun () ->
            is_empty_slow ~nvars sys.Hc.sys_cstrs)

let is_empty ~nvars cstrs =
  Obs.count "fm.is_empty";
  match Hc.find_rep cstrs with
  | Some sys -> is_empty_canonical ~nvars sys
  | None -> (
      match dedup cstrs with
      | None -> true
      | Some [] -> false
      | Some cstrs -> is_empty_canonical ~nvars (Hc.intern_rep cstrs))

let bounds_for ~var cstrs =
  List.fold_left
    (fun (lo, up) (c : Cstr.t) ->
      let a = c.Cstr.coef.(var) in
      match c.kind with
      | Cstr.Ge ->
          if a > 0 then ((a, c) :: lo, up)
          else if a < 0 then (lo, (-a, c) :: up)
          else (lo, up)
      | Cstr.Eq ->
          if a = 0 then (lo, up)
          else
            let pos = if a > 0 then c else { c with coef = Vec.scale (-1) c.coef; cst = -c.cst } in
            let neg = { pos with coef = Vec.scale (-1) pos.coef; cst = -pos.cst } in
            ((pos.coef.(var), { pos with kind = Ge }) :: lo,
             (-neg.coef.(var), { neg with kind = Ge }) :: up))
    ([], []) cstrs

let sample_exact ~nvars cstrs =
  match dedup cstrs with
  | None -> None
  | Some cstrs ->
      (* proj.(k): constraints over vars 0..k-1 only *)
      let proj = Array.make (nvars + 1) [] in
      proj.(nvars) <- cstrs;
      (try
         for k = nvars - 1 downto 0 do
           match dedup (eliminate ~exact:true ~var:k proj.(k + 1)) with
           | None -> raise Infeasible
           | Some c -> proj.(k) <- c
         done;
         if
           List.exists
             (fun c -> match Cstr.simplify c with Cstr.Trivial_false -> true | _ -> false)
             proj.(0)
         then None
         else begin
           let pt = Array.make nvars 0 in
           let feasible = ref true in
           for k = 0 to nvars - 1 do
             if !feasible then begin
               let lowers, uppers = bounds_for ~var:k proj.(k + 1) in
               let eval_partial (c : Cstr.t) =
                 let acc = ref c.cst in
                 for i = 0 to k - 1 do
                   acc := !acc + (c.coef.(i) * pt.(i))
                 done;
                 !acc
               in
               let lo =
                 List.fold_left
                   (fun acc (a, c) ->
                     let v = Vec.ceil_div (-eval_partial c) a in
                     match acc with None -> Some v | Some w -> Some (max v w))
                   None lowers
               in
               let hi =
                 List.fold_left
                   (fun acc (b, c) ->
                     let v = Vec.floor_div (eval_partial c) b in
                     match acc with None -> Some v | Some w -> Some (min v w))
                   None uppers
               in
               match (lo, hi) with
               | Some l, Some h -> if l <= h then pt.(k) <- l else feasible := false
               | Some l, None -> pt.(k) <- l
               | None, Some h -> pt.(k) <- h
               | None, None -> pt.(k) <- 0
             end
           done;
           if !feasible && List.for_all (fun c -> Cstr.holds c pt) cstrs then Some pt
           else if not !feasible then None
           else
             (* Exact projections guarantee extension, so reaching here
                indicates a bug rather than infeasibility. *)
             assert false
         end
       with Infeasible -> None)

let sample ~nvars cstrs =
  Obs.count "fm.sample";
  try sample_exact ~nvars cstrs
  with Inexact _ -> find_point_by_enum ~nvars cstrs

(* [c] is syntactically entailed: it appears verbatim in the system, or
   (for an inequality) an equality or tighter inequality on the same
   affine form does. Sound, and avoids the emptiness test entirely for
   the common constraint-reuse shapes of simple_hull and is_subset. *)
let syntactically_implied cstrs (c : Cstr.t) =
  List.exists
    (fun (d : Cstr.t) ->
      d.Cstr.coef = c.Cstr.coef
      &&
      match (d.Cstr.kind, c.Cstr.kind) with
      | Cstr.Eq, Cstr.Eq -> d.cst = c.cst
      | Cstr.Eq, Cstr.Ge | Cstr.Ge, Cstr.Ge -> d.cst <= c.cst
      | Cstr.Ge, Cstr.Eq -> false)
    cstrs

let implies ~nvars cstrs (c : Cstr.t) =
  Obs.count "fm.implies";
  if syntactically_implied cstrs c then true
  else
  match c.Cstr.kind with
  | Cstr.Ge -> is_empty ~nvars (Cstr.negate_ge c :: cstrs)
  | Cstr.Eq ->
      is_empty ~nvars
        ({ Cstr.kind = Ge; coef = Vec.scale (-1) c.coef; cst = -c.cst - 1 } :: cstrs)
      && is_empty ~nvars ({ c with kind = Ge; cst = c.cst - 1 } :: cstrs)
(* f = 0 implied iff both f <= -1 and f >= 1 are infeasible, i.e. f can be
   neither positive nor negative. The two constraints above encode
   -f - 1 >= 0 (f <= -1) and f - 1 >= 0 (f >= 1). *)

let remove_redundant ~nvars cstrs =
  Obs.count "fm.remove_redundant";
  match dedup cstrs with
  | None -> [ false_cstr nvars ]
  | Some [] -> []
  | Some cstrs ->
      let sys = Hc.intern cstrs in
      Fm_cache.find_or_add redundant_cache sys.Hc.sys_id (fun () ->
          let rec go kept = function
            | [] -> List.rev kept
            | (c : Cstr.t) :: rest ->
                let others = List.rev_append kept rest in
                if
                  c.kind = Ge
                  && (try implies ~nvars others c with Inexact _ -> false)
                then go kept rest
                else go (c :: kept) rest
          in
          go [] sys.Hc.sys_cstrs)
