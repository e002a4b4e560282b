type t = { space : Space.set_space; cstrs : Cstr.t list }

let width_of_space (sp : Space.set_space) =
  Array.length sp.params + Array.length sp.dims

(* Constraint lists are canonicalized at construction (gcd-reduced,
   deduped, sorted by Cstr.compare, contradictions collapsed to the
   canonical false constraint): structurally equal sets print the same
   and hash-cons to the same Fm memo key regardless of how they were
   built. *)
let make space cstrs =
  let w = width_of_space space in
  List.iter (fun c -> assert (Cstr.nvars c = w)) cstrs;
  { space; cstrs = Fm.canonical ~nvars:w cstrs }

let false_of space = Fm.false_cstr (width_of_space space)

let empty_set space = make space [ false_of space ]

let n_params s = Array.length s.space.Space.params

let n_dims s = Array.length s.space.Space.dims

let width s = width_of_space s.space

let space s = s.space

let tuple s = s.space.Space.tuple

let align_params s new_params =
  let old_params = s.space.Space.params in
  if old_params = new_params then s
  else begin
    let remap = Space.param_remap ~old_params ~new_params in
    let np_old = Array.length old_params and np_new = Array.length new_params in
    let nd = n_dims s in
    let conv (c : Cstr.t) =
      let coef = Array.make (np_new + nd) 0 in
      Array.iteri (fun i j -> coef.(j) <- c.coef.(i)) remap;
      for d = 0 to nd - 1 do
        coef.(np_new + d) <- c.coef.(np_old + d)
      done;
      { c with coef }
    in
    make { s.space with params = new_params } (List.map conv s.cstrs)
  end

let unify_params a b =
  let merged = Space.merge_params a.space.Space.params b.space.Space.params in
  (align_params a merged, align_params b merged)

let set_tuple s tuple = { s with space = { s.space with Space.tuple } }

let is_empty s =
  Obs.count "bset.is_empty";
  Obs.observe_int "bset.cstrs" (List.length s.cstrs);
  Fm.is_empty ~nvars:(width s) s.cstrs

let intersect a b =
  Obs.count "bset.intersect";
  let a, b = unify_params a b in
  assert (Space.same_set_space a.space b.space);
  let cstrs = a.cstrs @ b.cstrs in
  (* box-hull disjointness: unit bounds of far-apart operands already
     contradict, skip canonicalization of the dead combined system *)
  if Fm.box_trivially_empty ~nvars:(width a) cstrs then begin
    Obs.count "bset.intersect.box_disjoint";
    empty_set a.space
  end
  else make a.space cstrs

let is_subset a b =
  Obs.count "bset.is_subset";
  let a, b = unify_params a b in
  assert (Space.same_set_space a.space b.space);
  List.for_all
    (fun c -> try Fm.implies ~nvars:(width a) a.cstrs c with Fm.Inexact _ -> false)
    b.cstrs

let subtract a b =
  Obs.count "bset.subtract";
  let a, b = unify_params a b in
  assert (Space.same_set_space a.space b.space);
  (* Expand equalities of b into pairs of inequalities so negation is a
     single constraint per step. *)
  let b_ges =
    List.concat_map
      (fun (c : Cstr.t) ->
        match c.Cstr.kind with
        | Cstr.Ge -> [ c ]
        | Cstr.Eq ->
            [ { c with kind = Ge };
              { kind = Ge; coef = Vec.scale (-1) c.coef; cst = -c.cst }
            ])
      b.cstrs
  in
  let rec go acc established = function
    | [] -> List.rev acc
    | c :: rest ->
        let piece =
          make a.space ((Cstr.negate_ge c :: established) @ a.cstrs)
        in
        let acc = if is_empty piece then acc else piece :: acc in
        go acc (c :: established) rest
  in
  go [] [] b_ges

let project_dims_gen ~exact s ~first ~count =
  if count = 0 then s
  else begin
    Obs.count "bset.project";
    assert (first >= 0 && first + count <= n_dims s);
    let np = n_params s in
    let vars = List.init count (fun i -> np + first + i) in
    let cstrs = Fm.eliminate_many ~exact ~vars s.cstrs in
    let cstrs = List.map (fun c -> Cstr.remove_vars c ~pos:(np + first) ~count) cstrs in
    let dims =
      Array.append
        (Array.sub s.space.Space.dims 0 first)
        (Array.sub s.space.Space.dims (first + count)
           (n_dims s - first - count))
    in
    make { s.space with Space.dims } cstrs
  end

let project_dims s ~first ~count = project_dims_gen ~exact:true s ~first ~count

let project_dims_approx s ~first ~count =
  try project_dims s ~first ~count
  with Fm.Inexact _ -> project_dims_gen ~exact:false s ~first ~count

let bind_params s values =
  let keep_params =
    Array.to_list s.space.Space.params
    |> List.filter (fun p -> not (List.mem_assoc p values))
    |> Array.of_list
  in
  let np_old = Array.length s.space.Space.params in
  let np_new = Array.length keep_params in
  let nd = n_dims s in
  let conv (c : Cstr.t) =
    let coef = Array.make (np_new + nd) 0 in
    let cst = ref c.cst in
    let j = ref 0 in
    Array.iteri
      (fun i p ->
        match List.assoc_opt p values with
        | Some v -> cst := !cst + (c.coef.(i) * v)
        | None ->
            coef.(!j) <- c.coef.(i);
            incr j)
      s.space.Space.params;
    assert (!j = np_new);
    for d = 0 to nd - 1 do
      coef.(np_new + d) <- c.coef.(np_old + d)
    done;
    { c with coef; cst = !cst }
  in
  make { s.space with Space.params = keep_params } (List.map conv s.cstrs)

let contains s pt =
  assert (n_params s = 0);
  assert (Array.length pt = n_dims s);
  List.for_all (fun c -> Cstr.holds c pt) s.cstrs

let sample s =
  assert (n_params s = 0);
  Fm.sample ~nvars:(n_dims s) s.cstrs

(* Constant per-dimension bounds obtained by projecting away the other
   dimensions. Requires n_params = 0 and boundedness. *)
(* Exact per-dimension min/max by full enumeration; fallback for sets
   whose projections are not certified exact. *)
let bounds_by_enum s =
  let nd = n_dims s in
  let lo = Array.make nd max_int and hi = Array.make nd min_int in
  Fm.iter_points_by_enum ~nvars:nd s.cstrs (fun pt ->
      for d = 0 to nd - 1 do
        if pt.(d) < lo.(d) then lo.(d) <- pt.(d);
        if pt.(d) > hi.(d) then hi.(d) <- pt.(d)
      done);
  Array.init nd (fun d -> (lo.(d), hi.(d)))

let constant_bounds s =
  assert (n_params s = 0);
  let nd = n_dims s in
  try
    Array.init nd (fun d ->
        let others = List.init nd (fun i -> i) |> List.filter (fun i -> i <> d) in
        let cs = Fm.eliminate_many ~exact:true ~vars:others s.cstrs in
        let lowers, uppers = Fm.bounds_for ~var:d cs in
        let lo =
          List.fold_left
            (fun acc (a, (c : Cstr.t)) ->
              let v = Vec.ceil_div (-c.cst) a in
              match acc with None -> Some v | Some w -> Some (max v w))
            None lowers
        in
        let hi =
          List.fold_left
            (fun acc (b, (c : Cstr.t)) ->
              let v = Vec.floor_div c.cst b in
              match acc with None -> Some v | Some w -> Some (min v w))
            None uppers
        in
        match (lo, hi) with
        | Some l, Some h -> (l, h)
        | _ -> invalid_arg "Bset.box_hull: unbounded set")
  with Fm.Inexact _ -> bounds_by_enum s

let box_hull s =
  if is_empty s then Array.make (n_dims s) (0, -1) else constant_bounds s

let box_card s =
  Array.fold_left (fun acc (l, h) -> acc * max 0 (h - l + 1)) 1 (box_hull s)

let is_box s =
  List.for_all
    (fun (c : Cstr.t) ->
      let nonzero = ref 0 in
      for d = 0 to n_dims s - 1 do
        if c.coef.(n_params s + d) <> 0 then incr nonzero
      done;
      !nonzero <= 1)
    s.cstrs

let card_by_enum s =
  let n = ref 0 in
  Fm.iter_points_by_enum ~nvars:(n_dims s) s.cstrs (fun _ -> incr n);
  !n

let card s =
  Obs.count "bset.card";
  assert (n_params s = 0);
  if is_empty s then 0
  else if n_dims s = 0 then 1
  else if is_box s then box_card s
  else begin
    try
    let nd = n_dims s in
    (* proj.(k): constraints over dims < k *)
    let proj = Array.make (nd + 1) [] in
    proj.(nd) <- s.cstrs;
    for k = nd - 1 downto 0 do
      proj.(k) <-
        (match Fm.dedup (Fm.eliminate ~exact:true ~var:k proj.(k + 1)) with
        | None -> [ false_of s.space ]
        | Some c -> c)
    done;
    let pt = Array.make nd 0 in
    let rec count k =
      if k = nd then 1
      else begin
        let lowers, uppers = Fm.bounds_for ~var:k proj.(k + 1) in
        let eval_partial (c : Cstr.t) =
          let acc = ref c.cst in
          for i = 0 to k - 1 do
            acc := !acc + (c.coef.(i) * pt.(i))
          done;
          !acc
        in
        let lo =
          List.fold_left
            (fun acc (a, c) -> max acc (Vec.ceil_div (-eval_partial c) a))
            min_int lowers
        in
        let hi =
          List.fold_left
            (fun acc (b, c) -> min acc (Vec.floor_div (eval_partial c) b))
            max_int uppers
        in
        if lo = min_int || hi = max_int then invalid_arg "Bset.card: unbounded set";
        let total = ref 0 in
        for v = lo to hi do
          pt.(k) <- v;
          total := !total + count (k + 1)
        done;
        !total
      end
    in
    count 0
    with Fm.Inexact _ -> card_by_enum s
  end

let gist_simplify s =
  { s with cstrs = Fm.remove_redundant ~nvars:(width s) s.cstrs }

let var_names s =
  Array.append s.space.Space.params s.space.Space.dims

let body_string s =
  let names = var_names s in
  let dims = String.concat ", " (Array.to_list s.space.Space.dims) in
  let body =
    if s.cstrs = [] then ""
    else
      " : "
      ^ String.concat " and "
          (List.map (fun c -> Cstr.to_string ~names c) s.cstrs)
  in
  Printf.sprintf "%s[%s]%s" s.space.Space.tuple dims body

let to_string s =
  let params =
    if n_params s = 0 then ""
    else
      Printf.sprintf "[%s] -> "
        (String.concat ", " (Array.to_list s.space.Space.params))
  in
  Printf.sprintf "%s{ %s }" params (body_string s)
