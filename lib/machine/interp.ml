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

let address_cells mem =
  Hashtbl.fold
    (fun _ s acc -> max acc ((s.base / elem_bytes) + Array.length s.data))
    mem.arrays 0

(* ------------------------------------------------------------------ *)
(* Staging. An AST fragment is compiled once into a closure tree over a
   frame of loop-variable slots, then run any number of times. Every
   name is resolved while staging: loop variables to slots, calls to
   their statement, accesses to their array store, parameters to
   constants. A name that does not resolve becomes code that raises
   when it runs, so a fragment that never reaches it raises nothing. *)

(* One index of an access: [floor((cst + sum_k coefs.(k) *
   inst.(dims.(k))) / div)], the parameters folded into [cst]. *)
type index = { cst : int; dims : int array; coefs : int array; div : int }

type access = { array : string; s : array_store; idx : index array }

type call = {
  stmt : Prog.stmt;
  reads : access array;
  write : access;
  values : float array;  (** the read values, reused by every instance *)
}

(* What staged code runs against and updates. Ops accumulate in
   [stats.ops]; changing [kernel] adds the ops since the last change to
   the old kernel's [per_kernel_ops] entry, if an instance ran. *)
type runner = {
  p : Prog.t;
  mem : memory;
  hook : hook option;
  stats : stats;
  mutable kernel : int;
  mutable mark_instances : int;
  mutable mark_ops : int;
}

let set_kernel r k =
  let s = r.stats in
  if s.instances > r.mark_instances then
    Hashtbl.replace s.per_kernel_ops r.kernel
      (s.ops - r.mark_ops
      + Option.value ~default:0 (Hashtbl.find_opt s.per_kernel_ops r.kernel));
  r.mark_instances <- s.instances;
  r.mark_ops <- s.ops;
  r.kernel <- k

let resolve_access r (a : Prog.access) =
  let s = store r.mem a.Prog.array in
  if List.length a.Prog.indices <> Array.length s.extents then
    invalid_arg (Printf.sprintf "Interp: arity mismatch on %s" a.Prog.array);
  let index ({ aff; div } : Prog.index) =
    { cst = Prog.eval_aff_with_params r.p.Prog.params { aff with dims = [] } [||];
      dims = Array.of_list (List.map fst aff.dims);
      coefs = Array.of_list (List.map snd aff.dims);
      div
    }
  in
  { array = a.Prog.array; s; idx = Array.of_list (List.map index a.Prog.indices) }

(* Element-flat cell of an access, bounds-checked dimension by dimension. *)
let cell_of a inst =
  let flat = ref 0 in
  for d = 0 to Array.length a.idx - 1 do
    let ix = a.idx.(d) in
    let v = ref ix.cst in
    for k = 0 to Array.length ix.dims - 1 do
      v := !v + (ix.coefs.(k) * inst.(ix.dims.(k)))
    done;
    let v = if ix.div = 1 then !v else Presburger.Vec.floor_div !v ix.div in
    let e = a.s.extents.(d) in
    if v < 0 || v >= e then
      invalid_arg
        (Printf.sprintf "Interp: out of bounds on %s dim %d: %d (extent %d)"
           a.array d v e);
    flat := !flat + (v * a.s.strides.(d))
  done;
  !flat

let notify r c inst a cell ~write =
  match r.hook with
  | Some f ->
      f ~kernel:r.kernel ~stmt:c.stmt.Prog.stmt_name ~inst ~array:a.array ~cell
        ~addr:(a.s.base + (cell * elem_bytes)) ~write
  | None -> ()

let exec_call r c inst =
  let s = r.stats in
  s.instances <- s.instances + 1;
  for i = 0 to Array.length c.reads - 1 do
    let a = c.reads.(i) in
    let cell = cell_of a inst in
    s.reads <- s.reads + 1;
    notify r c inst a cell ~write:false;
    c.values.(i) <- a.s.data.(cell)
  done;
  let result = c.stmt.Prog.compute c.values in
  let w = c.write in
  let cell = cell_of w inst in
  s.writes <- s.writes + 1;
  w.s.data.(cell) <- result;
  notify r c inst w cell ~write:true;
  s.ops <- s.ops + c.stmt.Prog.ops

let lookup scope name =
  List.find_map (fun (n, v) -> if n = name then Some v else None) scope

(* Left fold of [op] over the values of staged expressions. *)
let fold op init fs =
  let rec go fr acc = function [] -> acc | f :: r -> go fr (op acc (f fr)) r in
  fun fr -> go fr init fs

let rec stage_expr params scope : Ast.expr -> int array -> int =
  let map g e =
    let f = stage_expr params scope e in
    fun fr -> g (f fr)
  and all es = List.map (stage_expr params scope) es in
  function
  | Ast.Int k -> fun _ -> k
  | Ast.Var v -> (
      match lookup scope v with
      | Some slot -> fun fr -> fr.(slot)
      | None ->
          fun _ -> invalid_arg (Printf.sprintf "eval_expr: unbound loop var %s" v))
  | Ast.Param p -> (
      match lookup params p with
      | Some k -> fun _ -> k
      | None -> fun _ -> invalid_arg (Printf.sprintf "eval_expr: unbound param %s" p))
  | Ast.Sum es -> fold ( + ) 0 (all es)
  | Ast.Mul (k, e) -> map (fun v -> k * v) e
  | Ast.Floor_div (e, d) -> map (fun v -> Presburger.Vec.floor_div v d) e
  | Ast.Ceil_div (e, d) -> map (fun v -> Presburger.Vec.ceil_div v d) e
  | Ast.Min_of es -> fold Int.min max_int (all es)
  | Ast.Max_of es -> fold Int.max min_int (all es)

(* [scope] maps each loop variable in scope, innermost first, to its
   frame slot; slots [0, List.length scope) are taken, and [size] grows
   to the frame size the fragment needs. *)
let rec stage r size scope : Ast.t -> int array -> unit =
  let expr = stage_expr r.p.Prog.params scope in
  function
  | Ast.Nop -> fun _ -> ()
  | Ast.Block ts ->
      let fs = List.map (stage r size scope) ts in
      let rec go fr = function [] -> () | f :: rest -> f fr; go fr rest in
      fun fr -> go fr fs
  | Ast.Kernel (k, t) ->
      let f = stage r size scope t in
      fun fr ->
        let saved = r.kernel in
        set_kernel r k;
        f fr;
        set_kernel r saved
  | Ast.Point t -> stage r size scope t
  | Ast.If (conds, body) ->
      let cs = List.map expr conds and f = stage r size scope body in
      let rec holds fr = function
        | [] -> true
        | c :: rest -> c fr >= 0 && holds fr rest
      in
      fun fr -> if holds fr cs then f fr
  | Ast.For { var; lb; ub; body; _ } ->
      let slot = List.length scope in
      size := max !size (slot + 1);
      let lb = expr lb and ub = expr ub in
      let f = stage r size ((var, slot) :: scope) body in
      fun fr ->
        let lo = lb fr in
        let hi = ub fr in
        for v = lo to hi do
          fr.(slot) <- v;
          f fr
        done
  | Ast.Call { stmt = name; args } -> (
      let args = Array.of_list (List.map expr args) in
      (* fresh per instance: a hook may keep it *)
      let inst fr =
        let a = Array.make (Array.length args) 0 in
        for i = 0 to Array.length args - 1 do
          a.(i) <- args.(i) fr
        done;
        a
      in
      let named (s : Prog.stmt) = s.Prog.stmt_name = name in
      match List.find_opt named r.p.Prog.stmts with
      | None ->
          fun fr ->
            ignore (inst fr);
            invalid_arg (Printf.sprintf "Interp: unknown statement %s" name)
      | Some stmt -> (
          let guard = Option.value stmt.Prog.guard ~default:(fun _ -> true) in
          match
            let reads = Array.of_list (List.map (resolve_access r) stmt.Prog.reads) in
            let write = resolve_access r stmt.Prog.write in
            { stmt; reads; write; values = Array.make (Array.length reads) 0.0 }
          with
          | c ->
              fun fr ->
                let i = inst fr in
                if guard i then exec_call r c i
          | exception Invalid_argument msg ->
              fun fr -> if guard (inst fr) then invalid_arg msg))

let tile_runner ?hook (p : Prog.t) mem =
  let r =
    { p;
      mem;
      hook;
      stats =
        { instances = 0;
          ops = 0;
          reads = 0;
          writes = 0;
          per_kernel_ops = Hashtbl.create 8
        };
      kernel = -1;
      mark_instances = 0;
      mark_ops = 0
    }
  in
  (* staged code and its frame, per (body, outer variable names) *)
  let staged = ref [] in
  let go ?(kernel = -1) ~env body =
    let names = List.map fst env in
    let code, frame =
      match List.find_opt (fun (b, n, _) -> b == body && n = names) !staged with
      | Some (_, _, c) -> c
      | None ->
          let size = ref (List.length names) in
          let code = stage r size (List.mapi (fun i n -> (n, i)) names) body in
          let c = (code, Array.make !size 0) in
          staged := (body, names, c) :: !staged;
          c
    in
    List.iteri (fun i (_, v) -> frame.(i) <- v) env;
    set_kernel r kernel;
    code frame;
    set_kernel r kernel
  in
  (r.stats, go)

let run ?hook (p : Prog.t) ast mem =
  Obs.span "interp.run" @@ fun () ->
  let stats, exec = tile_runner ?hook p mem in
  exec ~env:[] ast;
  Obs.add "interp.instances" stats.instances;
  Obs.add "interp.reads" stats.reads;
  Obs.add "interp.writes" stats.writes;
  Obs.add "interp.ops" stats.ops;
  stats

let arrays_equal m1 m2 name =
  let eps = 1e-6 in
  let a = read_array m1 name and b = read_array m2 name in
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps *. (1.0 +. Float.abs x)) a b
