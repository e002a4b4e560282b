type t = { space : Space.map_space; cstrs : Cstr.t list }

let width_of_space (sp : Space.map_space) =
  Array.length sp.params + Array.length sp.in_dims + Array.length sp.out_dims

(* Like Bset.make: constraint lists are canonicalized at construction
   so structurally equal maps are pointer-comparable through the Fm
   hash-consing layer and print deterministically. *)
let make space cstrs =
  let w = width_of_space space in
  List.iter (fun c -> assert (Cstr.nvars c = w)) cstrs;
  { space; cstrs = Fm.canonical ~nvars:w cstrs }

let empty_map space = make space [ Fm.false_cstr (width_of_space space) ]

let n_params m = Array.length m.space.Space.params

let n_in m = Array.length m.space.Space.in_dims

let n_out m = Array.length m.space.Space.out_dims

let width m = width_of_space m.space

let space m = m.space

let add_cstrs m cstrs = make m.space (cstrs @ m.cstrs)

(* ------------------------------------------------------------------ *)
(* Set view: reuse Bset algorithms on the flattened space               *)
(* ------------------------------------------------------------------ *)

let view_space (sp : Space.map_space) : Space.set_space =
  { params = sp.params;
    tuple = sp.in_tuple ^ ">" ^ sp.out_tuple;
    dims = Array.append sp.in_dims sp.out_dims
  }

let to_set_view m = Bset.make (view_space m.space) m.cstrs

let of_set_view space (s : Bset.t) =
  let space = { space with Space.params = (Bset.space s).Space.params } in
  assert (Bset.width s = width_of_space space);
  make space s.Bset.cstrs

let domain_map_cstrs m = m.cstrs

let align_params m new_params =
  of_set_view m.space (Bset.align_params (to_set_view m) new_params)

let unify_params a b =
  let merged = Space.merge_params a.space.Space.params b.space.Space.params in
  (align_params a merged, align_params b merged)

let is_empty m = Bset.is_empty (to_set_view m)

let same_map_space (a : Space.map_space) (b : Space.map_space) =
  a.in_tuple = b.in_tuple && a.out_tuple = b.out_tuple
  && Array.length a.in_dims = Array.length b.in_dims
  && Array.length a.out_dims = Array.length b.out_dims

let intersect a b =
  Obs.count "bmap.intersect";
  let a, b = unify_params a b in
  assert (same_map_space a.space b.space);
  of_set_view a.space (Bset.intersect (to_set_view a) (to_set_view b))

let is_subset a b =
  let a, b = unify_params a b in
  assert (same_map_space a.space b.space);
  Bset.is_subset (to_set_view a) (to_set_view b)

let subtract a b =
  let a, b = unify_params a b in
  assert (same_map_space a.space b.space);
  List.map (of_set_view a.space) (Bset.subtract (to_set_view a) (to_set_view b))

(* Lift a set constraint into the map's width, placing the set dims at
   [dim_offset]. Parameter spaces must already agree. *)
let lift_set_cstr ~np ~total_width ~dim_offset ~set_np (c : Cstr.t) =
  let coef = Array.make total_width 0 in
  for p = 0 to set_np - 1 do
    coef.(p) <- c.coef.(p)
  done;
  assert (set_np = np);
  let nd = Cstr.nvars c - set_np in
  for d = 0 to nd - 1 do
    coef.(dim_offset + d) <- c.coef.(set_np + d)
  done;
  { c with coef }

let intersect_domain m (s : Bset.t) =
  let merged = Space.merge_params m.space.Space.params (Bset.space s).Space.params in
  let m = align_params m merged and s = Bset.align_params s merged in
  assert ((Bset.space s).Space.tuple = m.space.Space.in_tuple);
  assert (Bset.n_dims s = n_in m);
  let np = n_params m in
  let lifted =
    List.map
      (lift_set_cstr ~np ~total_width:(width m) ~dim_offset:np ~set_np:np)
      s.Bset.cstrs
  in
  add_cstrs m lifted

let intersect_range m (s : Bset.t) =
  let merged = Space.merge_params m.space.Space.params (Bset.space s).Space.params in
  let m = align_params m merged and s = Bset.align_params s merged in
  assert ((Bset.space s).Space.tuple = m.space.Space.out_tuple);
  assert (Bset.n_dims s = n_out m);
  let np = n_params m in
  let lifted =
    List.map
      (lift_set_cstr ~np ~total_width:(width m) ~dim_offset:(np + n_in m) ~set_np:np)
      s.Bset.cstrs
  in
  add_cstrs m lifted

let reverse m =
  let np = n_params m and ni = n_in m and no = n_out m in
  let cstrs =
    List.map (fun c -> Cstr.swap_blocks c ~pos1:np ~len1:ni ~pos2:(np + ni) ~len2:no) m.cstrs
  in
  make (Space.reverse_map m.space) cstrs

let domain m =
  let v = to_set_view m in
  let s = Bset.project_dims v ~first:(n_in m) ~count:(n_out m) in
  Bset.set_tuple s m.space.Space.in_tuple

let range m =
  let v = to_set_view m in
  let s = Bset.project_dims v ~first:0 ~count:(n_in m) in
  Bset.set_tuple s m.space.Space.out_tuple

let range_approx m =
  let v = to_set_view m in
  let s = Bset.project_dims_approx v ~first:0 ~count:(n_in m) in
  Bset.set_tuple s m.space.Space.out_tuple

let domain_approx m =
  let v = to_set_view m in
  let s = Bset.project_dims_approx v ~first:(n_in m) ~count:(n_out m) in
  Bset.set_tuple s m.space.Space.in_tuple

let apply_range_gen ~exact r s =
  Obs.count "bmap.apply_range";
  let r, s = unify_params r s in
  assert (r.space.Space.out_tuple = s.space.Space.in_tuple);
  assert (n_out r = n_in s);
  let np = n_params r in
  let na = n_in r and nb = n_out r and nc = n_out s in
  let from_r (c : Cstr.t) = Cstr.insert_vars c ~pos:(np + na + nb) ~count:nc in
  let from_s (c : Cstr.t) = Cstr.insert_vars c ~pos:np ~count:na in
  let cstrs = List.map from_r r.cstrs @ List.map from_s s.cstrs in
  let mid = List.init nb (fun i -> np + na + i) in
  let cstrs = Fm.eliminate_many ~exact ~vars:mid cstrs in
  let cstrs = List.map (fun c -> Cstr.remove_vars c ~pos:(np + na) ~count:nb) cstrs in
  make
    { r.space with
      Space.out_tuple = s.space.Space.out_tuple;
      out_dims = s.space.Space.out_dims
    }
    cstrs

let apply_range r s = apply_range_gen ~exact:true r s

let apply_range_approx r s =
  try apply_range_gen ~exact:true r s
  with Fm.Inexact _ -> apply_range_gen ~exact:false r s

let apply_set s m =
  Obs.count "bmap.apply_set";
  let restricted = intersect_domain m s in
  range restricted

let from_affs ?(params = []) ~in_tuple ~in_dims ~out_tuple outs =
  let params = Array.of_list params in
  let in_dims_a = Array.of_list in_dims in
  let out_names = List.map fst outs in
  let sp : Space.map_space =
    { params;
      in_tuple;
      in_dims = in_dims_a;
      out_tuple;
      out_dims = Array.of_list out_names
    }
  in
  let np = Array.length params in
  let ni = Array.length in_dims_a in
  let no = List.length outs in
  let w = np + ni + no in
  let param_index p =
    let rec find i =
      if i >= np then invalid_arg (Printf.sprintf "from_affs: unknown param %s" p)
      else if params.(i) = p then i
      else find (i + 1)
    in
    find 0
  in
  let cstrs =
    List.mapi
      (fun j (_, aff) ->
        let row, cst =
          Aff.to_coef_row ~n_params:np ~param_index ~n_dims:ni ~dim_offset:np
            ~width:w aff
        in
        row.(np + ni + j) <- -1;
        Cstr.eq row cst)
      outs
  in
  make sp cstrs

let affine_on m ~col k cst kind =
  let coef = Array.make (width m) 0 in
  coef.(col) <- k;
  { Cstr.kind; coef; cst }

let fix_in_dim m d v = add_cstrs m [ affine_on m ~col:(n_params m + d) 1 (-v) Cstr.Eq ]

let bind_params m values =
  let v = Bset.bind_params (to_set_view m) values in
  of_set_view
    { m.space with Space.params = (Bset.space v).Space.params }
    v

(* Constraint-wise union hull (isl's "simple hull"): keep the
   constraints of each operand that are valid for the other. Sound
   over-approximation of the union; exact when the union is convex
   (e.g. footprints of contiguous stencil taps). *)
let simple_hull a b =
  let a, b = unify_params a b in
  assert (same_map_space a.space b.space);
  let w = width a in
  let keep sys (c : Cstr.t) =
    match c.Cstr.kind with
    | Cstr.Ge -> (
        try if Fm.implies ~nvars:w sys c then [ c ] else []
        with Fm.Inexact _ -> [])
    | Cstr.Eq ->
        let pos = { c with Cstr.kind = Cstr.Ge } in
        let neg =
          { Cstr.kind = Cstr.Ge; coef = Vec.scale (-1) c.Cstr.coef; cst = -c.Cstr.cst }
        in
        List.concat_map
          (fun g -> try if Fm.implies ~nvars:w sys g then [ g ] else [] with Fm.Inexact _ -> [])
          [ pos; neg ]
  in
  let cstrs =
    List.concat_map (keep b.cstrs) a.cstrs @ List.concat_map (keep a.cstrs) b.cstrs
  in
  match Fm.dedup cstrs with
  | None -> empty_map a.space
  | Some cstrs -> make a.space cstrs

let body_string m =
  let names =
    Array.concat [ m.space.Space.params; m.space.Space.in_dims; m.space.Space.out_dims ]
  in
  let ins = String.concat ", " (Array.to_list m.space.Space.in_dims) in
  let outs = String.concat ", " (Array.to_list m.space.Space.out_dims) in
  let body =
    if m.cstrs = [] then ""
    else
      " : "
      ^ String.concat " and " (List.map (fun c -> Cstr.to_string ~names c) m.cstrs)
  in
  Printf.sprintf "%s[%s] -> %s[%s]%s" m.space.Space.in_tuple ins
    m.space.Space.out_tuple outs body

let to_string m =
  let params =
    if n_params m = 0 then ""
    else
      Printf.sprintf "[%s] -> "
        (String.concat ", " (Array.to_list m.space.Space.params))
  in
  Printf.sprintf "%s{ %s }" params (body_string m)
