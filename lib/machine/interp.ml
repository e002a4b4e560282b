let elem_bytes = 4

type array_store = {
  data : float array;
  extents : int array;
  strides : int array;  (** row-major *)
  base : int;  (** byte address for cache simulation *)
}

type memory = { arrays : (string, array_store) Hashtbl.t }

let alloc (p : Prog.t) =
  let arrays = Hashtbl.create 16 in
  let next_base = ref 0 in
  List.iter
    (fun (a : Prog.array_decl) ->
      let extents = Array.of_list (Prog.array_extent p a.Prog.array_name) in
      let n = Array.fold_left ( * ) 1 extents in
      let nd = Array.length extents in
      let strides = Array.make nd 1 in
      for d = nd - 2 downto 0 do
        strides.(d) <- strides.(d + 1) * extents.(d + 1)
      done;
      Hashtbl.replace arrays a.Prog.array_name
        { data = Array.make (max n 1) 0.0; extents; strides; base = !next_base };
      (* pad to a cache line *)
      next_base := !next_base + (((n * elem_bytes) + 63) / 64 * 64))
    p.Prog.arrays;
  { arrays }

let store mem name =
  match Hashtbl.find_opt mem.arrays name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Interp: unknown array %s" name)

let read_array mem name = (store mem name).data

let fill mem name f =
  let s = store mem name in
  let nd = Array.length s.extents in
  let idx = Array.make nd 0 in
  let rec walk d flat =
    if d = nd then s.data.(flat) <- f idx
    else
      for v = 0 to s.extents.(d) - 1 do
        idx.(d) <- v;
        walk (d + 1) (flat + (v * s.strides.(d)))
      done
  in
  walk 0 0

type stats = {
  mutable instances : int;
  mutable ops : int;
  mutable reads : int;
  mutable writes : int;
  per_kernel_ops : (int, int) Hashtbl.t;
}

type hook =
  kernel:int ->
  stmt:string ->
  inst:int array ->
  array:string ->
  cell:int ->
  addr:int ->
  write:bool ->
  unit

let flat_index (s : array_store) ~array idxs =
  let nd = Array.length s.extents in
  if List.length idxs <> nd then
    invalid_arg (Printf.sprintf "Interp: arity mismatch on %s" array);
  let flat = ref 0 in
  List.iteri
    (fun d v ->
      if v < 0 || v >= s.extents.(d) then
        invalid_arg
          (Printf.sprintf "Interp: out of bounds on %s dim %d: %d (extent %d)"
             array d v s.extents.(d));
      flat := !flat + (v * s.strides.(d)))
    idxs;
  !flat

let address_cells mem =
  Hashtbl.fold
    (fun _ s acc -> max acc ((s.base / elem_bytes) + Array.length s.data))
    mem.arrays 0

(* Core AST walker shared by [run] and [tile_runner]. Builds its own
   statement table and stats record, so each instantiation is
   self-contained: workers of the parallel runtime create one per
   domain and execute tile subtrees against the shared memory without
   touching any global. Obs is domain-safe, but one Obs lock taken per
   access would serialise the workers. *)
let executor ?hook (p : Prog.t) mem =
  let stats =
    { instances = 0;
      ops = 0;
      reads = 0;
      writes = 0;
      per_kernel_ops = Hashtbl.create 8
    }
  in
  let params = p.Prog.params in
  let stmt_tbl = Hashtbl.create 8 in
  List.iter (fun (s : Prog.stmt) -> Hashtbl.replace stmt_tbl s.Prog.stmt_name s) p.Prog.stmts;
  let kernel = ref (-1) in
  let notify ~stmt ~inst ~array s cell ~write =
    match hook with
    | Some f ->
        f ~kernel:!kernel ~stmt ~inst ~array ~cell
          ~addr:(s.base + (cell * elem_bytes)) ~write
    | None -> ()
  in
  let exec_call name args =
    let stmt =
      match Hashtbl.find_opt stmt_tbl name with
      | Some s -> s
      | None -> invalid_arg (Printf.sprintf "Interp: unknown statement %s" name)
    in
    let inst = Array.of_list args in
    let proceed = match stmt.Prog.guard with Some g -> g inst | None -> true in
    if proceed then begin
      stats.instances <- stats.instances + 1;
      let read_value (a : Prog.access) =
        let s = store mem a.Prog.array in
        let idxs =
          List.map (fun ix -> Prog.eval_index_with_params params ix inst) a.Prog.indices
        in
        let flat = flat_index s ~array:a.Prog.array idxs in
        stats.reads <- stats.reads + 1;
        notify ~stmt:name ~inst ~array:a.Prog.array s flat ~write:false;
        s.data.(flat)
      in
      let values = Array.of_list (List.map read_value stmt.Prog.reads) in
      let result = stmt.Prog.compute values in
      let wa = stmt.Prog.write in
      let ws = store mem wa.Prog.array in
      let widxs =
        List.map (fun ix -> Prog.eval_index_with_params params ix inst) wa.Prog.indices
      in
      let wflat = flat_index ws ~array:wa.Prog.array widxs in
      stats.writes <- stats.writes + 1;
      ws.data.(wflat) <- result;
      notify ~stmt:name ~inst ~array:wa.Prog.array ws wflat ~write:true;
      stats.ops <- stats.ops + stmt.Prog.ops;
      Hashtbl.replace stats.per_kernel_ops !kernel
        (stmt.Prog.ops
        + Option.value ~default:0 (Hashtbl.find_opt stats.per_kernel_ops !kernel))
    end
  in
  let rec exec env = function
    | Ast.Nop -> ()
    | Ast.Block ts -> List.iter (exec env) ts
    | Ast.Kernel (k, t) ->
        let saved = !kernel in
        kernel := k;
        exec env t;
        kernel := saved
    | Ast.Point t -> exec env t
    | Ast.If (conds, body) ->
        if
          List.for_all (fun c -> Ast.eval_expr ~params ~env c >= 0) conds
        then exec env body
    | Ast.For { var; lb; ub; body; _ } ->
        let lo = Ast.eval_expr ~params ~env lb in
        let hi = Ast.eval_expr ~params ~env ub in
        for v = lo to hi do
          exec ((var, v) :: env) body
        done
    | Ast.Call { stmt; args } ->
        exec_call stmt (List.map (Ast.eval_expr ~params ~env) args)
  in
  let go ?kernel:(k0 = -1) ~env ast =
    kernel := k0;
    exec env ast
  in
  (stats, go)

let run ?hook (p : Prog.t) ast mem =
  Obs.span "interp.run" @@ fun () ->
  let stats, exec = executor ?hook p mem in
  exec ~env:[] ast;
  Obs.add "interp.instances" stats.instances;
  Obs.add "interp.reads" stats.reads;
  Obs.add "interp.writes" stats.writes;
  Obs.add "interp.ops" stats.ops;
  stats

let tile_runner ?hook (p : Prog.t) mem = executor ?hook p mem

let arrays_equal m1 m2 name =
  let eps = 1e-6 in
  let a = read_array m1 name and b = read_array m2 name in
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps *. (1.0 +. Float.abs x)) a b
