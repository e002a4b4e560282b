open Presburger

type band = {
  partial : Imap.t;
  n_members : int;
  permutable : bool;
  coincident : bool array;
}

type t =
  | Domain of Iset.t * t
  | Band of band * t
  | Sequence of t list
  | Filter of Iset.t * t
  | Mark of string * t
  | Extension of Imap.t * t
  | Leaf

let mk_band ~partial ~permutable ~coincident =
  let n_members =
    match Imap.pieces partial with
    | [] -> 0
    | m :: _ -> Bmap.n_out m
  in
  assert (Array.length coincident = n_members);
  { partial; n_members; permutable; coincident }

let floor_div_map ~tuple_in ~dims ~tuple_out ~tile_sizes =
  let nd = Array.length dims in
  assert (Array.length tile_sizes = nd);
  let mspace : Space.map_space =
    { params = [||];
      in_tuple = tuple_in;
      in_dims = dims;
      out_tuple = tuple_out;
      out_dims = Array.map (fun d -> d ^ "t") dims
    }
  in
  let cstrs =
    List.concat
      (List.init nd (fun d ->
           let t = tile_sizes.(d) in
           assert (t >= 1);
           (* t*o <= b  and  b <= t*o + t - 1 *)
           let lo = Array.make (2 * nd) 0 in
           lo.(d) <- 1;
           lo.(nd + d) <- -t;
           let hi = Array.make (2 * nd) 0 in
           hi.(d) <- -1;
           hi.(nd + d) <- t;
           [ Cstr.ge lo 0; Cstr.ge hi (t - 1) ]))
  in
  Bmap.make mspace cstrs

let tile_band b ~tile_sizes ~prefix =
  let tile_pieces =
    List.map
      (fun piece ->
        let sp = Bmap.space piece in
        let fd =
          floor_div_map ~tuple_in:sp.Space.out_tuple ~dims:sp.Space.out_dims
            ~tuple_out:(prefix ^ sp.Space.out_tuple) ~tile_sizes
        in
        Bmap.apply_range piece fd)
      (Imap.pieces b.partial)
  in
  let tile_band =
    { partial = Imap.of_bmaps tile_pieces;
      n_members = b.n_members;
      permutable = b.permutable;
      coincident = Array.copy b.coincident
    }
  in
  (tile_band, b)

let domain_of = function
  | Domain (d, _) -> d
  | _ -> invalid_arg "domain_of: root is not a domain node"

let rec filters_under node =
  let merge a b = a @ List.filter (fun x -> not (List.mem x a)) b in
  match node with
  | Domain (d, child) -> merge (Iset.tuples d) (filters_under child)
  | Filter (f, child) -> merge (Iset.tuples f) (filters_under child)
  | Band (_, child) | Mark (_, child) | Extension (_, child) ->
      filters_under child
  | Sequence children ->
      List.fold_left (fun acc c -> merge acc (filters_under c)) [] children
  | Leaf -> []

let rec map_tree f node =
  let node' =
    match node with
    | Domain (d, c) -> Domain (d, map_tree f c)
    | Band (b, c) -> Band (b, map_tree f c)
    | Sequence cs -> Sequence (List.map (map_tree f) cs)
    | Filter (s, c) -> Filter (s, map_tree f c)
    | Mark (m, c) -> Mark (m, map_tree f c)
    | Extension (e, c) -> Extension (e, map_tree f c)
    | Leaf -> Leaf
  in
  match f node' with Some replaced -> replaced | None -> node'

let to_string t =
  let buf = Buffer.create 256 in
  let pad n = String.make (2 * n) ' ' in
  let rec go depth node =
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (pad depth ^ s ^ "\n")) fmt in
    match node with
    | Domain (d, c) ->
        line "domain: %s" (Iset.to_string d);
        go (depth + 1) c
    | Band (b, c) ->
        line "band (permutable=%b, coincident=[%s]):"
          b.permutable
          (String.concat "," (List.map string_of_bool (Array.to_list b.coincident)));
        line "  %s" (Imap.to_string b.partial);
        go (depth + 1) c
    | Sequence cs ->
        line "sequence:";
        List.iter (go (depth + 1)) cs
    | Filter (f, c) ->
        line "filter: {%s}" (String.concat "; " (Iset.tuples f));
        go (depth + 1) c
    | Mark (m, c) ->
        line "mark: \"%s\"" m;
        go (depth + 1) c
    | Extension (e, c) ->
        line "extension: %s" (Imap.to_string e);
        go (depth + 1) c
    | Leaf -> line "leaf"
  in
  go 0 t;
  Buffer.contents buf
