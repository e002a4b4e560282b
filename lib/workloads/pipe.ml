open Presburger

type t = {
  pname : string;
  params : (string * int) list;
  mutable arrays : Prog.array_decl list;
  mutable stmts : Prog.stmt list;
}

let create pname ~params = { pname; params; arrays = []; stmts = [] }

let param_names t = List.map fst t.params

let array t name extents =
  if List.exists (fun (a : Prog.array_decl) -> a.Prog.array_name = name) t.arrays
  then ()
  else t.arrays <- t.arrays @ [ { Prog.array_name = name; extents } ]

let input t name extents = array t name extents

let dim_names n = List.init n (fun i -> Printf.sprintf "x%d" i)

(* Box domain [0, extents_i) over n dims, extents affine over params. *)
let box_domain t name extents =
  let params = param_names t in
  let bounds =
    List.mapi
      (fun i e -> (Printf.sprintf "x%d" i, Aff.const 0, Aff.add_const e (-1)))
      extents
  in
  ignore name;
  Wl.box ~params (match bounds with [] -> invalid_arg "box_domain" | _ -> name) bounds

let stage t ~name ~out ~extents ~reads ?(ops = 2) ~compute () =
  array t out extents;
  let n = List.length extents in
  let dims = dim_names n in
  let params = param_names t in
  let write =
    Prog.mk_access ~params ~stmt_name:name ~dims ~array:out
      (List.init n (fun i -> Prog.index (Aff.dim i)))
  in
  let reads =
    List.map
      (fun (arr, idxs) -> Prog.mk_access ~params ~stmt_name:name ~dims ~array:arr idxs)
      reads
  in
  let stmt =
    Prog.mk_stmt ~name ~domain:(box_domain t name extents) ~write ~reads ~compute
      ~ops ()
  in
  t.stmts <- t.stmts @ [ stmt ]

let reduction t ~name ~out ~extents ~red_dims ~reads ?(ops = 2) ?(init = 0.0)
    ~combine () =
  array t out extents;
  let n = List.length extents in
  let params = param_names t in
  let out_dims = dim_names n in
  (* init statement over the output box *)
  let init_name = name ^ "_init" in
  let write_init =
    Prog.mk_access ~params ~stmt_name:init_name ~dims:out_dims ~array:out
      (List.init n (fun i -> Prog.index (Aff.dim i)))
  in
  let init_stmt =
    Prog.mk_stmt ~nest:name ~name:init_name
      ~domain:(box_domain t init_name extents)
      ~write:write_init ~reads:[]
      ~compute:(fun _ -> init)
      ~ops:1 ()
  in
  (* update statement over output box x reduction box *)
  let upd_name = name ^ "_upd" in
  let all_dims = out_dims @ List.map fst red_dims in
  let domain =
    let bounds =
      List.mapi
        (fun i e -> (Printf.sprintf "x%d" i, Aff.const 0, Aff.add_const e (-1)))
        extents
      @ List.map (fun (d, e) -> (d, Aff.const 0, Aff.add_const e (-1))) red_dims
    in
    Wl.box ~params upd_name bounds
  in
  let write_upd =
    Prog.mk_access ~params ~stmt_name:upd_name ~dims:all_dims ~array:out
      (List.init n (fun i -> Prog.index (Aff.dim i)))
  in
  let acc_read =
    Prog.mk_access ~params ~stmt_name:upd_name ~dims:all_dims ~array:out
      (List.init n (fun i -> Prog.index (Aff.dim i)))
  in
  let other_reads =
    List.map
      (fun (arr, idxs) ->
        Prog.mk_access ~params ~stmt_name:upd_name ~dims:all_dims ~array:arr idxs)
      reads
  in
  let upd_stmt =
    Prog.mk_stmt ~nest:name ~name:upd_name ~domain ~write:write_upd
      ~reads:(acc_read :: other_reads) ~compute:combine ~ops
      ~reduction_dims:(List.length red_dims) ()
  in
  t.stmts <- t.stmts @ [ init_stmt; upd_stmt ]

let stmt t s = t.stmts <- t.stmts @ [ s ]

let finish t ~live_out =
  let p =
    Prog.make ~name:t.pname ~params:t.params ~arrays:t.arrays ~stmts:t.stmts
      ~live_out
  in
  Prog.validate p;
  p
