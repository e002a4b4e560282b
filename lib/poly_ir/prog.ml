open Presburger

type array_decl = { array_name : string; extents : Aff.t list }

type index = { aff : Aff.t; div : int }

type access = { array : string; indices : index list; rel : Bmap.t }

type stmt = {
  stmt_name : string;
  nest : string;
  domain : Bset.t;
  write : access;
  reads : access list;
  compute : float array -> float;
  ops : int;
  guard : (int array -> bool) option;
  reduction_dims : int;
}

type t = {
  prog_name : string;
  params : (string * int) list;
  arrays : array_decl list;
  stmts : stmt list;
  live_out : string list;
}

let index ?(div = 1) aff =
  assert (div >= 1);
  { aff; div }

let mk_access ?(params = []) ~stmt_name ~dims ~array indices =
  let params_a = Array.of_list params in
  let np = Array.length params_a in
  let ni = List.length dims in
  let no = List.length indices in
  let w = np + ni + no in
  let param_index p =
    let rec find i =
      if i >= np then invalid_arg (Printf.sprintf "mk_access: unknown param %s" p)
      else if params_a.(i) = p then i
      else find (i + 1)
    in
    find 0
  in
  let mspace =
    Space.map_space ~params stmt_name dims array
      (List.mapi (fun j _ -> Printf.sprintf "a%d" j) indices)
  in
  let cstrs =
    List.concat
      (List.mapi
         (fun j { aff; div } ->
           let row, cst =
             Aff.to_coef_row ~n_params:np ~param_index ~n_dims:ni ~dim_offset:np
               ~width:w aff
           in
           if div = 1 then begin
             (* aff - out_j = 0 *)
             let r = Array.copy row in
             r.(np + ni + j) <- -1;
             [ Cstr.eq r cst ]
           end
           else begin
             (* div*out_j <= aff <= div*out_j + div - 1 *)
             let lo = Array.copy row in
             lo.(np + ni + j) <- -div;
             let hi = Vec.scale (-1) row in
             hi.(np + ni + j) <- div;
             [ Cstr.ge lo cst; Cstr.ge hi (div - 1 - cst) ]
           end)
         indices)
  in
  { array; indices; rel = Bmap.make mspace cstrs }

let mk_stmt ?guard ?(reduction_dims = 0) ?nest ~name ~domain ~write ~reads
    ~compute ~ops () =
  { stmt_name = name;
    nest = Option.value ~default:name nest;
    domain;
    write;
    reads;
    compute;
    ops;
    guard;
    reduction_dims
  }

let make ~name ~params ~arrays ~stmts ~live_out =
  { prog_name = name; params; arrays; stmts; live_out }

let find_stmt t name =
  match List.find_opt (fun s -> s.stmt_name = name) t.stmts with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "find_stmt: %s" name)

let find_array t name =
  match List.find_opt (fun a -> a.array_name = name) t.arrays with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "find_array: %s" name)

let param_names t = List.map fst t.params

let eval_aff_with_params params (a : Aff.t) pt =
  let v = ref a.Aff.cst in
  List.iter
    (fun (p, c) ->
      match List.assoc_opt p params with
      | Some x -> v := !v + (c * x)
      | None -> invalid_arg (Printf.sprintf "eval_aff: unbound param %s" p))
    a.Aff.params;
  List.iter (fun (d, c) -> v := !v + (c * pt.(d))) a.Aff.dims;
  !v

let array_extent t name =
  let a = find_array t name in
  List.map (fun e -> eval_aff_with_params t.params e [||]) a.extents

let stmt_index t name =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "stmt_index: %s" name)
    | s :: _ when s.stmt_name = name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.stmts

let domain_card t s = Bset.card (Bset.bind_params s.domain t.params)

let writers_of t array =
  List.filter (fun s -> s.write.array = array) t.stmts

let intermediate_arrays t =
  t.arrays
  |> List.filter_map (fun a ->
         if
           (not (List.mem a.array_name t.live_out))
           && writers_of t a.array_name <> []
         then Some a.array_name
         else None)

let validate t =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let array_names = List.map (fun a -> a.array_name) t.arrays in
  List.iter
    (fun l ->
      if not (List.mem l array_names) then fail "live-out array %s undeclared" l)
    t.live_out;
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.stmt_name then fail "duplicate statement %s" s.stmt_name;
      Hashtbl.add seen s.stmt_name ();
      if Bset.tuple s.domain <> s.stmt_name then
        fail "statement %s: domain tuple mismatch" s.stmt_name;
      let check_access what (a : access) =
        if not (List.mem a.array array_names) then
          fail "statement %s: %s access to undeclared array %s" s.stmt_name what
            a.array;
        let decl = find_array t a.array in
        if List.length a.indices <> List.length decl.extents then
          fail "statement %s: %s access arity mismatch on %s" s.stmt_name what
            a.array;
        if (Bmap.space a.rel).Space.in_tuple <> s.stmt_name then
          fail "statement %s: %s access input tuple mismatch" s.stmt_name what;
        if Bmap.n_in a.rel <> Bset.n_dims s.domain then
          fail "statement %s: %s access input arity mismatch" s.stmt_name what
      in
      check_access "write" s.write;
      List.iter (check_access "read") s.reads;
      if s.reduction_dims < 0 || s.reduction_dims > Bset.n_dims s.domain then
        fail "statement %s: bad reduction_dims" s.stmt_name)
    t.stmts
