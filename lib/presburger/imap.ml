type t = Bmap.t list

let empty = []

let of_bmap m = [ m ]

let of_bmaps ms = ms

let pieces t = t

let union a b = a @ b

let union_all ts = List.concat ts

let compatible (a : Bmap.t) (b : Bmap.t) =
  a.Bmap.space.Space.in_tuple = b.Bmap.space.Space.in_tuple
  && a.Bmap.space.Space.out_tuple = b.Bmap.space.Space.out_tuple
  && Bmap.n_in a = Bmap.n_in b
  && Bmap.n_out a = Bmap.n_out b

let subtract a b =
  List.concat_map
    (fun pa ->
      List.fold_left
        (fun pieces pb ->
          if pieces = [] then []
          else if compatible pa pb then
            List.concat_map (fun p -> Bmap.subtract p pb) pieces
          else pieces)
        [ pa ] b)
    a

let is_empty t = List.for_all Bmap.is_empty t

let is_subset a b = is_empty (subtract a b)

let coalesce t =
  let non_empty = List.filter (fun p -> not (Bmap.is_empty p)) t in
  let rec go kept = function
    | [] -> List.rev kept
    | p :: rest ->
        let covered =
          List.exists
            (fun q -> compatible p q && Bmap.is_subset p q)
            (List.rev_append kept rest)
        in
        if covered then go kept rest else go (p :: kept) rest
  in
  go [] non_empty

(* Merge compatible pieces into their simple hulls: used to keep
   footprint relations to one piece per statement pair. Sound
   over-approximation of the union. *)
let hull_compress t =
  let rec insert merged (piece : Bmap.t) =
    match merged with
    | [] -> [ piece ]
    | q :: rest ->
        if compatible piece q then Bmap.simple_hull piece q :: rest
        else q :: insert rest piece
  in
  List.fold_left insert [] t |> List.rev

let range t = Iset.of_bsets (List.map Bmap.range t)

let reverse t = List.map Bmap.reverse t

let apply_range_gen f r s =
  List.concat_map
    (fun (pr : Bmap.t) ->
      List.filter_map
        (fun (ps : Bmap.t) ->
          if
            pr.Bmap.space.Space.out_tuple = ps.Bmap.space.Space.in_tuple
            && Bmap.n_out pr = Bmap.n_in ps
          then
            let c = f pr ps in
            if Bmap.is_empty c then None else Some c
          else None)
        s)
    r

let apply_range_approx r s = apply_range_gen Bmap.apply_range_approx r s

let apply_set s m =
  Iset.of_bsets
    (List.concat_map
       (fun set_piece ->
         List.filter_map
           (fun (mp : Bmap.t) ->
             if
               mp.Bmap.space.Space.in_tuple = Bset.tuple set_piece
               && Bmap.n_in mp = Bset.n_dims set_piece
             then
               let img = Bmap.apply_set set_piece mp in
               if Bset.is_empty img then None else Some img
             else None)
           m)
       (Iset.pieces s))

let intersect_domain t s =
  List.concat_map
    (fun (mp : Bmap.t) ->
      List.filter_map
        (fun set_piece ->
          if
            mp.Bmap.space.Space.in_tuple = Bset.tuple set_piece
            && Bmap.n_in mp = Bset.n_dims set_piece
          then
            let r = Bmap.intersect_domain mp set_piece in
            if Bmap.is_empty r then None else Some r
          else None)
        (Iset.pieces s))
    t

let intersect_range t s =
  List.concat_map
    (fun (mp : Bmap.t) ->
      List.filter_map
        (fun set_piece ->
          if
            mp.Bmap.space.Space.out_tuple = Bset.tuple set_piece
            && Bmap.n_out mp = Bset.n_dims set_piece
          then
            let r = Bmap.intersect_range mp set_piece in
            if Bmap.is_empty r then None else Some r
          else None)
        (Iset.pieces s))
    t

let lex_piece (sp : Space.set_space) ~eq_upto ~strict_at =
  let nd = Array.length sp.dims in
  let np = Array.length sp.params in
  let mspace : Space.map_space =
    { params = sp.params;
      in_tuple = sp.tuple;
      in_dims = sp.dims;
      out_tuple = sp.tuple;
      out_dims = Array.map (fun d -> d ^ "'") sp.dims
    }
  in
  let w = np + nd + nd in
  let eqs =
    List.init eq_upto (fun d ->
        let coef = Array.make w 0 in
        coef.(np + d) <- 1;
        coef.(np + nd + d) <- -1;
        Cstr.eq coef 0)
  in
  let lt =
    let coef = Array.make w 0 in
    coef.(np + strict_at) <- -1;
    coef.(np + nd + strict_at) <- 1;
    Cstr.ge coef (-1)
  in
  Bmap.make mspace (lt :: eqs)

let lex_lt_first (sp : Space.set_space) k =
  List.init k (fun level -> lex_piece sp ~eq_upto:level ~strict_at:level)

let lex_lt sp = lex_lt_first sp (Array.length sp.dims)

let bind_params t values = List.map (fun p -> Bmap.bind_params p values) t

let card t =
  Iset.card (Iset.of_bsets (List.map Bmap.to_set_view t))

(* Same isl-compatible shape as Iset.to_string: one brace pair, ';'
   between pieces, merged parameter prefix. *)
let to_string t =
  match t with
  | [] -> "{ }"
  | pieces ->
      let merged =
        List.fold_left
          (fun acc m -> Space.merge_params acc (Bmap.space m).Space.params)
          [||] pieces
      in
      let pieces = List.map (fun m -> Bmap.align_params m merged) pieces in
      let prefix =
        if Array.length merged = 0 then ""
        else
          Printf.sprintf "[%s] -> " (String.concat ", " (Array.to_list merged))
      in
      Printf.sprintf "%s{ %s }" prefix
        (String.concat " ; " (List.map Bmap.body_string pieces))
