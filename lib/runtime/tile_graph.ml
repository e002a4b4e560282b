(* Tile-graph extraction: split a generated AST at the point-band
   boundary ([Ast.Point]) into per-tile work items and derive
   inter-tile dependence edges.

   Edges combine two sources of information:

   - a cheap interval analysis of each item's array accesses
     (per-(array, read/write) bounding boxes over the item's loop
     ranges), which decides whether two items can touch the same
     cells at all; and
   - the presburger dependence relations of the original program,
     which gate box conflicts at statement-pair granularity: a box
     overlap between items whose statements have no dependence in
     either direction is a false sharing of the over-approximation
     (e.g. idempotent halo recomputation) and produces no edge.

   Items whose accesses cannot be bounded (an index depending on a
   variable we could not resolve) are marked opaque and ordered
   conservatively against every other item, which degrades the graph
   towards a sequence. *)

type itv = int * int

exception Unanalyzable of string

let itv_add (a, b) (c, d) = (a + c, b + d)

let itv_mul k ((a, b) : itv) = if k >= 0 then (k * a, k * b) else (k * b, k * a)

let rec eval_itv ~params ~env : Ast.expr -> itv = function
  | Ast.Int k -> (k, k)
  | Ast.Var v -> (
      match List.assoc_opt v env with
      | Some i -> i
      | None -> raise (Unanalyzable v))
  | Ast.Param p -> (
      match List.assoc_opt p params with
      | Some x -> (x, x)
      | None -> raise (Unanalyzable p))
  | Ast.Sum es ->
      List.fold_left (fun acc e -> itv_add acc (eval_itv ~params ~env e)) (0, 0) es
  | Ast.Mul (k, e) -> itv_mul k (eval_itv ~params ~env e)
  | Ast.Floor_div (e, d) ->
      let a, b = eval_itv ~params ~env e in
      (Presburger.Vec.floor_div a d, Presburger.Vec.floor_div b d)
  | Ast.Ceil_div (e, d) ->
      let a, b = eval_itv ~params ~env e in
      (Presburger.Vec.ceil_div a d, Presburger.Vec.ceil_div b d)
  | Ast.Min_of es ->
      List.fold_left
        (fun (la, lb) e ->
          let a, b = eval_itv ~params ~env e in
          (min la a, min lb b))
        (max_int, max_int) es
  | Ast.Max_of es ->
      List.fold_left
        (fun (la, lb) e ->
          let a, b = eval_itv ~params ~env e in
          (max la a, max lb b))
        (min_int, min_int) es

type box = itv array

type item = {
  id : int;  (** also the sequential execution order *)
  body : Ast.t;
  env : (string * int) list;  (** enumerated outer loop bindings *)
  kernel : int;  (** enclosing kernel id, -1 outside any kernel *)
  reads : (string, box) Hashtbl.t;
  writes : (string, box) Hashtbl.t;
  stmts : string list;
  opaque : bool;  (** accesses could not be bounded *)
}

type t = {
  items : item array;
  succs : int list array;
  preds : int array;  (** predecessor counts, aligned with [items] *)
  n_edges : int;
}

let n_items g = Array.length g.items

let overlap (b1 : box) (b2 : box) =
  Array.length b1 = Array.length b2
  && Array.for_all2 (fun (a, b) (c, d) -> a <= d && c <= b) b1 b2

let merge_box tbl arr (b : box) =
  match Hashtbl.find_opt tbl arr with
  | None -> Hashtbl.replace tbl arr b
  | Some old ->
      Hashtbl.replace tbl arr
        (Array.map2 (fun (a, b) (c, d) -> (min a c, max b d)) old b)

let collect_boxes ~params ~env0 (p : Prog.t) body =
  let reads = Hashtbl.create 8 in
  let writes = Hashtbl.create 8 in
  let stmts = ref [] in
  let box_of_access (args : itv array) (a : Prog.access) : box =
    Array.of_list
      (List.map
         (fun (ix : Prog.index) ->
           let acc =
             List.fold_left
               (fun acc (d, c) ->
                 if d < 0 || d >= Array.length args then
                   raise (Unanalyzable "dim")
                 else itv_add acc (itv_mul c args.(d)))
               (ix.Prog.aff.Presburger.Aff.cst, ix.Prog.aff.Presburger.Aff.cst)
               ix.Prog.aff.Presburger.Aff.dims
           in
           let lo, hi =
             List.fold_left
               (fun acc (pname, c) ->
                 match List.assoc_opt pname params with
                 | Some v -> itv_add acc (c * v, c * v)
                 | None -> raise (Unanalyzable pname))
               acc ix.Prog.aff.Presburger.Aff.params
           in
           if ix.Prog.div = 1 then (lo, hi)
           else
             ( Presburger.Vec.floor_div lo ix.Prog.div,
               Presburger.Vec.floor_div hi ix.Prog.div ))
         a.Prog.indices)
  in
  let rec walk env = function
    | Ast.Nop -> ()
    | Ast.Block ts -> List.iter (walk env) ts
    | Ast.Kernel (_, t) | Ast.Point t -> walk env t
    (* guards only restrict the executed instances, so ignoring them
       keeps the boxes a sound over-approximation *)
    | Ast.If (_, t) -> walk env t
    | Ast.For { var; lb; ub; body; _ } ->
        let llo, _ = eval_itv ~params ~env lb in
        let _, uhi = eval_itv ~params ~env ub in
        walk ((var, (llo, max llo uhi)) :: env) body
    | Ast.Call { stmt; args } ->
        let st = Prog.find_stmt p stmt in
        let args = Array.of_list (List.map (eval_itv ~params ~env) args) in
        if not (List.mem stmt !stmts) then stmts := stmt :: !stmts;
        List.iter
          (fun (r : Prog.access) ->
            merge_box reads r.Prog.array (box_of_access args r))
          st.Prog.reads;
        merge_box writes st.Prog.write.Prog.array
          (box_of_access args st.Prog.write)
  in
  walk env0 body;
  (reads, writes, List.rev !stmts)

let rec contains_point = function
  | Ast.Point _ -> true
  | Ast.For { body; _ } | Ast.If (_, body) | Ast.Kernel (_, body) ->
      contains_point body
  | Ast.Block ts -> List.exists contains_point ts
  | Ast.Call _ | Ast.Nop -> false

(* Loops without a point marker (naive or residual code) are enumerated
   this many levels deep. *)
let split_levels = 2

let extract ?(max_tiles = 1024) (p : Prog.t) ~(deps : Deps.t list) ast =
  Obs.span "runtime.extract" @@ fun () ->
  let params = p.Prog.params in
  let items = ref [] in
  let n = ref 0 in
  let add_item ~kernel ~env body =
    let id = !n in
    incr n;
    let item =
      try
        let env0 = List.map (fun (v, x) -> (v, (x, x))) env in
        let reads, writes, stmts = collect_boxes ~params ~env0 p body in
        { id; body; env; kernel; reads; writes; stmts; opaque = false }
      with Unanalyzable _ ->
        { id;
          body;
          env;
          kernel;
          reads = Hashtbl.create 1;
          writes = Hashtbl.create 1;
          stmts = [];
          opaque = true
        }
    in
    items := item :: !items
  in
  (* [depth] is the remaining fallback-splitting budget for loops that
     contain no point marker (naive or residual code); loops above a
     point marker are always enumerated while the (soft) tile cap
     allows. *)
  let rec walk ~depth env kernel node =
    match node with
    | Ast.Nop -> ()
    | Ast.Block ts -> List.iter (walk ~depth env kernel) ts
    | Ast.Kernel (k, t) -> walk ~depth env k t
    | Ast.Point body -> add_item ~kernel ~env body
    | Ast.If (conds, body) -> (
        match
          List.for_all (fun c -> Ast.eval_expr ~params ~env c >= 0) conds
        with
        | true -> walk ~depth env kernel body
        | false -> ()
        | exception Invalid_argument _ -> add_item ~kernel ~env node)
    | Ast.For { var; lb; ub; body; _ } -> (
        let bounds =
          match (Ast.eval_expr ~params ~env lb, Ast.eval_expr ~params ~env ub)
          with
          | b -> Some b
          | exception Invalid_argument _ -> None
        in
        let has_pt = contains_point body in
        match bounds with
        | Some (lo, hi) when hi < lo -> ()
        | Some (lo, hi)
          when (has_pt || depth > 0) && !n + (hi - lo + 1) <= max_tiles ->
            let depth = if has_pt then depth else depth - 1 in
            for v = lo to hi do
              walk ~depth ((var, v) :: env) kernel body
            done
        | _ -> add_item ~kernel ~env node)
    | Ast.Call _ -> add_item ~kernel ~env node
  in
  walk ~depth:split_levels [] (-1) ast;
  let items = Array.of_list (List.rev !items) in
  let n = Array.length items in
  (* The edge scan visits every item pair, so its inputs are built once
     per extraction: each item's read and write boxes as arrays sorted
     by a dense array id (a pair's box conflict is a merge, with no
     hashing of names), its statements as dense ids, and a symmetric
     matrix of the statement pairs with a dependence in either
     direction. The predicate is unchanged: an opaque item is ordered
     against every other, two analyzable items when their boxes
     conflict and their statements depend. *)
  let array_ids = Hashtbl.create 16 in
  let array_id arr =
    match Hashtbl.find_opt array_ids arr with
    | Some k -> k
    | None ->
        let k = Hashtbl.length array_ids in
        Hashtbl.add array_ids arr k;
        k
  in
  let sorted_boxes tbl =
    let a =
      Hashtbl.to_seq tbl
      |> Seq.map (fun (arr, b) -> (array_id arr, b))
      |> Array.of_seq
    in
    Array.sort (fun (x, _) (y, _) -> compare x y) a;
    a
  in
  let reads = Array.map (fun it -> sorted_boxes it.reads) items in
  let writes = Array.map (fun it -> sorted_boxes it.writes) items in
  let stmt_ids = Hashtbl.create 16 in
  List.iteri
    (fun k (s : Prog.stmt) -> Hashtbl.replace stmt_ids s.Prog.stmt_name k)
    p.Prog.stmts;
  let stmts =
    Array.map
      (fun it -> Array.of_list (List.map (Hashtbl.find stmt_ids) it.stmts))
      items
  in
  let ns = Hashtbl.length stmt_ids in
  let dep = Array.make_matrix ns ns false in
  List.iter
    (fun (d : Deps.t) ->
      let id = Hashtbl.find_opt stmt_ids in
      match (id d.Deps.src, id d.Deps.dst) with
      | Some s, Some t ->
          dep.(s).(t) <- true;
          dep.(t).(s) <- true
      | _ -> ())
    deps;
  let conflict (w : (int * box) array) (r : (int * box) array) =
    let rec go i j =
      i < Array.length w
      && j < Array.length r
      &&
      let a, bw = w.(i) and b, br = r.(j) in
      if a < b then go (i + 1) j
      else if a > b then go i (j + 1)
      else overlap bw br || go (i + 1) (j + 1)
    in
    go 0 0
  in
  let stmt_dep i j =
    Array.exists
      (fun s -> Array.exists (fun t -> dep.(s).(t)) stmts.(j))
      stmts.(i)
  in
  let succs = Array.make n [] in
  let preds = Array.make n 0 in
  let n_edges = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let edge =
        items.(i).opaque || items.(j).opaque
        || (conflict writes.(i) reads.(j)
           || conflict writes.(i) writes.(j)
           || conflict writes.(j) reads.(i))
           && stmt_dep i j
      in
      if edge then begin
        succs.(i) <- j :: succs.(i);
        preds.(j) <- preds.(j) + 1;
        incr n_edges
      end
    done;
    succs.(i) <- List.rev succs.(i)
  done;
  { items; succs; preds; n_edges = !n_edges }

(* Wavefront levels: longest path from a root. Edges always go from a
   lower id to a higher one, so a single ascending scan settles every
   level before it is read. *)
let levels g =
  let n = Array.length g.items in
  let level = Array.make n 0 in
  for i = 0 to n - 1 do
    List.iter (fun j -> level.(j) <- max level.(j) (level.(i) + 1)) g.succs.(i)
  done;
  level
