open Presburger

(* Independent static legality checker for final schedule trees.

   This module re-derives, from a schedule tree alone, the set of
   execution times of every statement instance — mirroring the code
   generator's semantics (sequence branches order children, bands add
   schedule dimensions, extension nodes inject recomputed instances
   under the referenced band, "skipped" marks prune) but sharing no
   code with lib/scheduler's legality predicates. Every presburger
   dependence of the program is then discharged by emptiness tests:
   a dependence arc i -> j is satisfied when, for some occurrence of
   the source statement and some block level k of the schedule-time
   prefix shared by the two occurrences,

     - j never executes in a block where i does not      (coverage), and
     - within every shared block, all executions of i precede all
       executions of j lexicographically                 (ordering).

   k = 0 is the classic whole-program "no reversed arc" test; deeper k
   (e.g. the tile-band prefix) is what legitimizes the paper's
   post-tiling fusion, where extension nodes re-execute producer
   instances inside every consuming tile.

   Soundness policy for Fourier-Motzkin projections: anything that
   *grows* a "bad" set or the needed-arc set may be over-approximated
   (conservative: can only produce spurious violations, never hide
   one). The source-side prefix projection asserts that the source
   *does* execute at a block, so it must be exact; when exactness
   cannot be certified the candidate simply covers nothing (counted in
   [rep_inexact]).

   Dynamic guards ([Prog.stmt.guard]) are opaque to this analysis, as
   they are to the scheduler: all instances of the domain are assumed
   to execute. The dynamic shadow validator covers guard behavior. *)

exception Structural of string

(* ------------------------------------------------------------------ *)
(* Occurrence collection                                               *)
(* ------------------------------------------------------------------ *)

(* Where an occurrence sits in the tree: one element per sequence
   branch taken and per band traversed. Node ids are unique per walk,
   so equal elements imply the same tree node (two sibling subtrees
   can allocate bands at identical time positions). *)
type path_elem =
  | Pseq of int * int * int  (** node id, time position, child index *)
  | Pband of int * int * int  (** node id, first time position, members *)

(* Destination column of one map dimension in the occurrence system. *)
type col = Time of int | Dim of int

(* Constraint sources accumulated along the walk; materialized into a
   flat system over [t_0 .. t_{M-1}; d_0 .. d_{nd-1}] once the global
   number of time dimensions M is known. *)
type part =
  | Pdom of Bset.t  (** parameters bound; columns are the statement dims *)
  | Pmap of Bmap.t * col array * col array
      (** a band piece (in = dims, out = times) or an extension piece
          (in = times of the referenced band, out = dims) *)
  | Pconst of int * int  (** time position = constant *)

type occurrence = {
  occ_stmt : string;
  occ_nd : int;
  occ_parts : part list;
  occ_path : path_elem list;  (** root first *)
  occ_len : int;  (** time dims used, including the textual-order one *)
}

let path_string occ =
  let elem = function
    | Pseq (_, p, i) -> Printf.sprintf "seq@%d[%d]" p i
    | Pband (_, p, n) -> Printf.sprintf "band@%d(x%d)" p n
  in
  String.concat " / " (List.map elem occ.occ_path) ^ " :: " ^ occ.occ_stmt

type wstate = { ws_stmt : Prog.stmt; ws_parts : part list }

let no_params_set b =
  if Bset.n_params b <> 0 then
    raise
      (Structural
         (Printf.sprintf "unbound parameters in set over %s" (Bset.tuple b)));
  b

let no_params_map m =
  if Bmap.n_params m <> 0 then
    raise
      (Structural
         (Printf.sprintf "unbound parameters in map %s -> %s"
            (Bmap.space m).Space.in_tuple (Bmap.space m).Space.out_tuple));
  m

(* Walk the tree, mirroring Gen's statement-state semantics: one
   occurrence per (leaf, active statement state). *)
let collect (p : Prog.t) tree =
  let params = p.Prog.params in
  let next_id = ref 0 in
  let fresh () =
    incr next_id;
    !next_id
  in
  let occs = ref [] in
  let rec go ~pos ~sched ~seq_parts ~path active (node : Schedule_tree.t) =
    match node with
    | Schedule_tree.Leaf ->
        let leaf_id = fresh () in
        List.iter
          (fun ws ->
            let idx = Prog.stmt_index p ws.ws_stmt.Prog.stmt_name in
            occs :=
              { occ_stmt = ws.ws_stmt.Prog.stmt_name;
                occ_nd = Bset.n_dims ws.ws_stmt.Prog.domain;
                occ_parts = Pconst (pos, idx) :: (seq_parts @ ws.ws_parts);
                occ_path = List.rev (Pseq (leaf_id, pos, idx) :: path);
                occ_len = pos + 1
              }
              :: !occs)
          active
    | Schedule_tree.Domain (dom, child) ->
        let dom = Iset.bind_params dom params in
        let active =
          List.map
            (fun piece ->
              { ws_stmt = Prog.find_stmt p (Bset.tuple piece);
                ws_parts = [ Pdom (no_params_set piece) ]
              })
            (Iset.pieces dom)
        in
        go ~pos ~sched ~seq_parts ~path active child
    | Schedule_tree.Filter (f, child) ->
        let names = Iset.tuples f in
        let active =
          List.filter
            (fun ws -> List.mem ws.ws_stmt.Prog.stmt_name names)
            active
        in
        if active <> [] then go ~pos ~sched ~seq_parts ~path active child
    | Schedule_tree.Sequence cs ->
        let id = fresh () in
        List.iteri
          (fun i c ->
            go ~pos:(pos + 1) ~sched
              ~seq_parts:(Pconst (pos, i) :: seq_parts)
              ~path:(Pseq (id, pos, i) :: path)
              active c)
          cs
    | Schedule_tree.Mark ("skipped", _) -> ()
    | Schedule_tree.Mark (_, child) -> go ~pos ~sched ~seq_parts ~path active child
    | Schedule_tree.Extension (ext, child) ->
        let ext = Imap.bind_params ext params in
        let news =
          List.map
            (fun piece ->
              let sp = Bmap.space piece in
              let stmt = Prog.find_stmt p sp.Space.out_tuple in
              let tcols =
                match List.assoc_opt sp.Space.in_tuple sched with
                | Some a -> a
                | None ->
                    raise
                      (Structural
                         ("extension over unknown schedule tuple "
                        ^ sp.Space.in_tuple))
              in
              let nd = Bset.n_dims stmt.Prog.domain in
              let dom =
                no_params_set (Bset.bind_params stmt.Prog.domain params)
              in
              { ws_stmt = stmt;
                ws_parts =
                  [ Pmap
                      ( no_params_map piece,
                        Array.map (fun c -> Time c) tcols,
                        Array.init nd (fun i -> Dim i) );
                    Pdom dom
                  ]
              })
            (Imap.pieces ext)
        in
        go ~pos ~sched ~seq_parts ~path (active @ news) child
    | Schedule_tree.Band (b, child) ->
        let pieces = Imap.pieces (Imap.bind_params b.Schedule_tree.partial params) in
        let n = b.Schedule_tree.n_members in
        let piece_for ws =
          List.find_opt
            (fun pc ->
              (Bmap.space pc).Space.in_tuple = ws.ws_stmt.Prog.stmt_name)
            pieces
        in
        let schedules_someone = List.exists (fun ws -> piece_for ws <> None) active in
        if n = 0 || not schedules_someone then
          go ~pos ~sched ~seq_parts ~path active child
        else begin
          let id = fresh () in
          let tcols = Array.init n (fun j -> pos + j) in
          let out_tuple = ref None in
          let active =
            List.map
              (fun ws ->
                match piece_for ws with
                | None -> ws
                | Some pc ->
                    out_tuple := Some (Bmap.space pc).Space.out_tuple;
                    let nd = Bset.n_dims ws.ws_stmt.Prog.domain in
                    { ws with
                      ws_parts =
                        Pmap
                          ( no_params_map pc,
                            Array.init nd (fun i -> Dim i),
                            Array.map (fun c -> Time c) tcols )
                        :: ws.ws_parts
                    })
              active
          in
          let sched =
            match !out_tuple with Some t -> (t, tcols) :: sched | None -> sched
          in
          go ~pos:(pos + n) ~sched ~seq_parts
            ~path:(Pband (id, pos, n) :: path)
            active child
        end
  in
  go ~pos:0 ~sched:[] ~seq_parts:[] ~path:[] [] tree;
  List.rev !occs

(* ------------------------------------------------------------------ *)
(* Materialization: flat constraint systems over [times; dims]         *)
(* ------------------------------------------------------------------ *)

let materialize ~m occ =
  let width = m + occ.occ_nd in
  let lift cstrs target =
    List.map
      (fun (c : Cstr.t) ->
        if Cstr.nvars c <> Array.length target then
          raise (Structural "constraint width mismatch during lifting");
        let row = Array.make width 0 in
        Array.iteri (fun i col -> row.(col) <- row.(col) + c.Cstr.coef.(i)) target;
        { c with Cstr.coef = row })
      cstrs
  in
  let col_of = function Time t -> t | Dim d -> m + d in
  let of_part = function
    | Pconst (pos, v) ->
        let row = Array.make width 0 in
        row.(pos) <- 1;
        [ Cstr.eq row (-v) ]
    | Pdom b ->
        lift b.Bset.cstrs (Array.init (Bset.n_dims b) (fun i -> m + i))
    | Pmap (bm, ins, outs) ->
        lift bm.Bmap.cstrs
          (Array.append (Array.map col_of ins) (Array.map col_of outs))
  in
  let padding =
    List.init (m - occ.occ_len) (fun q ->
        let row = Array.make width 0 in
        row.(occ.occ_len + q) <- 1;
        Cstr.eq row 0)
  in
  (List.concat_map of_part occ.occ_parts @ padding, width)

let sys_empty ~nvars sys =
  try Fm.is_empty ~nvars sys with Fm.Inexact _ -> false

(* Occurrence with its flat system materialized once: [check] iterates
   the quadratic (source occurrence x destination occurrence x block
   level) space, so the per-occurrence work is hoisted out of it.
   [oc_consts.(q)] is the statically known value of time dim q (from
   sequence positions, the leaf textual-order constant and padding);
   it decides most ordering disjuncts without any emptiness test. *)
type oc = {
  o : occurrence;
  oc_id : int;
  oc_sys : Cstr.t list;  (* width m + nd *)
  oc_consts : int option array;  (* length m *)
}

let oc_of ~m id occ =
  let sys, _ = materialize ~m occ in
  let consts = Array.make m None in
  List.iter
    (function
      | Pconst (pos, v) -> consts.(pos) <- Some v
      | Pdom _ | Pmap _ -> ())
    occ.occ_parts;
  for q = occ.occ_len to m - 1 do
    consts.(q) <- Some 0
  done;
  { o = occ; oc_id = id; oc_sys = sys; oc_consts = consts }

(* Execution domain of an occurrence (its instances, over the statement
   dims), memoized per occurrence; over-approximate when inexact. *)
let exec_dom ~m ~cache oc =
  match Hashtbl.find_opt cache oc.oc_id with
  | Some r -> r
  | None ->
      let vars = List.init m (fun q -> q) in
      let cstrs =
        try Fm.eliminate_many ~exact:true ~vars oc.oc_sys
        with Fm.Inexact _ -> Fm.eliminate_many ~exact:false ~vars oc.oc_sys
      in
      let r = List.map (fun c -> Cstr.remove_vars c ~pos:0 ~count:m) cstrs in
      Hashtbl.replace cache oc.oc_id r;
      r

(* Relation [u(k); d]: instance d has an execution time whose first k
   dims equal u, memoized per (occurrence, k, exactness). Raises
   [Fm.Inexact] when [exact] and uncertifiable. *)
let prefix_proj ~m ~k ~exact ~cache oc =
  match Hashtbl.find_opt cache (oc.oc_id, k, exact) with
  | Some (Ok r) -> r
  | Some (Error e) -> raise e
  | None -> (
      let vars = List.init (m - k) (fun q -> k + q) in
      match
        let cstrs =
          if exact then Fm.eliminate_many ~exact:true ~vars oc.oc_sys
          else
            try Fm.eliminate_many ~exact:true ~vars oc.oc_sys
            with Fm.Inexact _ -> Fm.eliminate_many ~exact:false ~vars oc.oc_sys
        in
        List.map (fun c -> Cstr.remove_vars c ~pos:k ~count:(m - k)) cstrs
      with
      | r ->
          Hashtbl.replace cache (oc.oc_id, k, exact) (Ok r);
          r
      | exception (Fm.Inexact _ as e) ->
          Hashtbl.replace cache (oc.oc_id, k, exact) (Error e);
          raise e)

(* ------------------------------------------------------------------ *)
(* Per-dependence coverage check                                       *)
(* ------------------------------------------------------------------ *)

type violation = {
  vl_kind : string;  (** "raw" | "war" | "waw" | "liveout" | "structural" *)
  vl_src : string;
  vl_dst : string;
  vl_array : string;
  vl_path : string;  (** schedule path of the violated occurrence *)
  vl_witness : (int array * int array) option;
      (** a source/destination instance pair left uncovered *)
  vl_detail : string;
}

type report = {
  rep_occurrences : int;
  rep_deps_checked : int;
  rep_violations : violation list;
  rep_inexact : int;
      (** candidate coverage claims abandoned because a source-side
          projection could not be certified integer-exact *)
}

let kind_string = function
  | Deps.Raw -> "raw"
  | Deps.War -> "war"
  | Deps.Waw -> "waw"

let names_of n prefix = List.init n (fun i -> Printf.sprintf "%s%d" prefix i)

(* Remap a system over [u(k); d(nd)] into a wider row where column
   [targets.(i)] receives source column i. *)
let remap width targets cstrs =
  List.map
    (fun (c : Cstr.t) ->
      let row = Array.make width 0 in
      Array.iteri (fun i col -> row.(col) <- row.(col) + c.Cstr.coef.(i)) targets;
      { c with Cstr.coef = row })
    cstrs

(* Boundary candidates of the structural prefix shared by two
   occurrence paths, deepest first (plus the global candidate 0). *)
let candidates os od =
  let rec shared acc a b =
    match (a, b) with
    | x :: a', y :: b' when x = y ->
        let boundary =
          match x with Pseq (_, p, _) -> p + 1 | Pband (_, p, n) -> p + n
        in
        shared (boundary :: acc) a' b'
    | _ -> acc
  in
  List.sort_uniq (fun a b -> compare b a)
    (0 :: shared [] os.occ_path od.occ_path)

let check (p : Prog.t) ~(deps : Deps.t list) tree =
  Obs.span "verify.check" @@ fun () ->
  let params = p.Prog.params in
  let occs = collect p tree in
  let m = List.fold_left (fun acc o -> max acc o.occ_len) 0 occs in
  (* drop occurrences that never execute (e.g. an extension piece whose
     relation is empty after parameter binding) *)
  let occs =
    List.mapi (fun i o -> oc_of ~m i o) occs
    |> List.filter (fun oc ->
           not (sys_empty ~nvars:(m + oc.o.occ_nd) oc.oc_sys))
  in
  let exec_cache = Hashtbl.create 64 in
  let proj_cache = Hashtbl.create 256 in
  let by_stmt name = List.filter (fun oc -> oc.o.occ_stmt = name) occs in
  let inexact = ref 0 in
  let violations = ref [] in
  let check_dep (d : Deps.t) =
    Obs.count "verify.deps_checked";
    let src_stmt = Prog.find_stmt p d.Deps.src in
    let dst_stmt = Prog.find_stmt p d.Deps.dst in
    let n_s = Bset.n_dims src_stmt.Prog.domain in
    let n_t = Bset.n_dims dst_stmt.Prog.domain in
    let arc_space = Space.set_space "arc" (names_of n_s "i" @ names_of n_t "j") in
    let rels =
      List.map no_params_map (Imap.pieces (Imap.bind_params d.Deps.rel params))
    in
    let src_occs = by_stmt d.Deps.src and dst_occs = by_stmt d.Deps.dst in
    let arc_bset cstrs = Bset.make arc_space cstrs in
    (* Arcs NOT covered by candidate (os, k): the complement (within
       the relation) of the covered set. Coverage is established by
       intersecting the needed arcs with every candidate's bad set —
       set subtraction over the arc space explodes into complement
       products, intersection stays linear in the pieces and exits as
       soon as one candidate's bad set is empty (full coverage). *)
    let bad_set os od k =
      match prefix_proj ~m ~k ~exact:true ~cache:proj_cache os with
      | exception Fm.Inexact _ ->
          incr inexact;
          None
      | ps ->
          let pd = prefix_proj ~m ~k ~exact:false ~cache:proj_cache od in
          (* wide space [i; j; u(k)] *)
          let w3 = n_s + n_t + k in
          let sp3 =
            Space.set_space "arc_u"
              (names_of n_s "i" @ names_of n_t "j" @ names_of k "u")
          in
          let ps3 =
            remap w3
              (Array.init (k + n_s) (fun c ->
                   if c < k then n_s + n_t + c else c - k))
              ps
          in
          let pd3 =
            remap w3
              (Array.init (k + n_t) (fun c ->
                   if c < k then n_s + n_t + c else n_s + (c - k)))
              pd
          in
          let rel3 rel =
            remap w3 (Array.init (n_s + n_t) (fun c -> c)) rel.Bmap.cstrs
          in
          let to_arc piece = Bset.set_tuple piece "arc" in
          (* Arcs i -> j such that j executes at some shared block where
             i does not: the destination side may be over-approximated
             (more blocks to cover), the source side is exact. *)
          let bad_prefix =
            List.concat_map
              (fun rel ->
                let a = Bset.make sp3 (rel3 rel @ pd3) in
                let b = Bset.make sp3 ps3 in
                List.map
                  (fun piece ->
                    to_arc
                      (Bset.project_dims_approx piece ~first:(n_s + n_t)
                         ~count:k))
                  (Bset.subtract a b))
              rels
          in
          (* Arcs with a same-block execution pair ordered t >=lex t'
             beyond the block prefix: one disjunct per position pp where
             t and t' first differ (pp = m is the all-equal case). *)
          let w4 = n_s + n_t + (2 * m) in
          let sp4 =
            Space.set_space "arc_t"
              (names_of n_s "i" @ names_of n_t "j" @ names_of m "t"
             @ names_of m "s")
          in
          let s4 =
            remap w4
              (Array.init (m + n_s) (fun c ->
                   if c < m then n_s + n_t + c else c - m))
              os.oc_sys
          in
          let d4 =
            remap w4
              (Array.init (m + n_t) (fun c ->
                   if c < m then n_s + n_t + m + c else n_s + (c - m)))
              od.oc_sys
          in
          let rel4 rel =
            remap w4 (Array.init (n_s + n_t) (fun c -> c)) rel.Bmap.cstrs
          in
          let eq_at q =
            let row = Array.make w4 0 in
            row.(n_s + n_t + q) <- 1;
            row.(n_s + n_t + m + q) <- -1;
            Cstr.eq row 0
          in
          let strict_at q =
            (* t_q >= s_q + 1 *)
            let row = Array.make w4 0 in
            row.(n_s + n_t + q) <- 1;
            row.(n_s + n_t + m + q) <- -1;
            Cstr.ge row (-1)
          in
          (* A disjunct at first-difference position pp is decided
             without any emptiness test whenever the statically known
             time constants (sequence positions, textual order,
             padding) already refute one of its equalities or its
             strict inequality. *)
          let const_feasible pp =
            let eq_ok q =
              match (os.oc_consts.(q), od.oc_consts.(q)) with
              | Some a, Some b -> a = b
              | _ -> true
            in
            let rec eqs_ok q = q >= pp || (eq_ok q && eqs_ok (q + 1)) in
            eqs_ok k
            && (pp >= m
               ||
               match (os.oc_consts.(pp), od.oc_consts.(pp)) with
               | Some a, Some b -> a >= b + 1
               | _ -> true)
          in
          let bad_order =
            List.concat_map
              (fun rel ->
                List.filter_map
                  (fun pp ->
                    if not (const_feasible pp) then None
                    else begin
                      let eqs = List.init (pp - k) (fun q -> eq_at (k + q)) in
                      let strict = if pp < m then [ strict_at pp ] else [] in
                      let bs =
                        Bset.make sp4 (rel4 rel @ s4 @ d4 @ eqs @ strict)
                      in
                      if try Bset.is_empty bs with Fm.Inexact _ -> false then
                        None
                      else
                        Some
                          (to_arc
                             (Bset.project_dims_approx bs ~first:(n_s + n_t)
                                ~count:(2 * m)))
                    end)
                  (List.init (m - k + 1) (fun q -> k + q)))
              rels
          in
          Some
            (Iset.union (Iset.of_bsets bad_prefix) (Iset.of_bsets bad_order))
    in
    List.iter
      (fun od ->
        let execd = exec_dom ~m ~cache:exec_cache od in
        let needed =
          Iset.of_bsets
            (List.map
               (fun rel ->
                 arc_bset
                   (rel.Bmap.cstrs
                   @ remap (n_s + n_t)
                       (Array.init n_t (fun c -> n_s + c))
                       execd))
               rels)
        in
        (* Fast path: does candidate (os, k) alone cover every needed
           arc? Tested as emptiness of [needed /\ bad(os, k)] disjunct
           by disjunct on the unprojected systems (emptiness of an
           exists-quantified system is emptiness of its matrix).
           Negating one source-prefix constraint at a time enumerates
           the pieces of the bad-prefix complement. Each test is
           [Fm.real_shadow_empty]: [true] proves the disjunct empty,
           [false] only sends the arc to the exact path below. Its
           answers are memoized, so the systems that recur across a
           tune's candidates are eliminated once. *)
        let needed_pieces = Iset.pieces needed in
        let covers_all os k =
          match prefix_proj ~m ~k ~exact:true ~cache:proj_cache os with
          | exception Fm.Inexact _ ->
              incr inexact;
              false
          | ps ->
              let pd = prefix_proj ~m ~k ~exact:false ~cache:proj_cache od in
              let w3 = n_s + n_t + k in
              let ps3 =
                remap w3
                  (Array.init (k + n_s) (fun c ->
                       if c < k then n_s + n_t + c else c - k))
                  ps
              in
              let pd3 =
                remap w3
                  (Array.init (k + n_t) (fun c ->
                       if c < k then n_s + n_t + c else n_s + (c - k)))
                  pd
              in
              let rel3 rel =
                remap w3 (Array.init (n_s + n_t) (fun c -> c)) rel.Bmap.cstrs
              in
              let np3 np =
                remap w3 (Array.init (n_s + n_t) (fun c -> c)) np.Bset.cstrs
              in
              (* negation of one constraint, as Ge rows (an equality
                 negates into two disjuncts) *)
              let negations (c : Cstr.t) =
                let flipped = Vec.scale (-1) c.Cstr.coef in
                match c.Cstr.kind with
                | Cstr.Ge -> [ Cstr.ge flipped (-c.Cstr.cst - 1) ]
                | Cstr.Eq ->
                    [ Cstr.ge c.Cstr.coef (c.Cstr.cst - 1);
                      Cstr.ge flipped (-c.Cstr.cst - 1)
                    ]
              in
              let prefix_ok =
                List.for_all
                  (fun rel ->
                    List.for_all
                      (fun np ->
                        List.for_all
                          (fun c ->
                            List.for_all
                              (fun nc ->
                                Fm.real_shadow_empty ~nvars:w3
                                  (nc :: rel3 rel @ pd3 @ np3 np))
                              (negations c))
                          ps3)
                      needed_pieces)
                  rels
              in
              prefix_ok
              &&
              let w4 = n_s + n_t + (2 * m) in
              let s4 =
                remap w4
                  (Array.init (m + n_s) (fun c ->
                       if c < m then n_s + n_t + c else c - m))
                  os.oc_sys
              in
              let d4 =
                remap w4
                  (Array.init (m + n_t) (fun c ->
                       if c < m then n_s + n_t + m + c else n_s + (c - m)))
                  od.oc_sys
              in
              let rel4 rel =
                remap w4 (Array.init (n_s + n_t) (fun c -> c)) rel.Bmap.cstrs
              in
              let np4 np =
                remap w4 (Array.init (n_s + n_t) (fun c -> c)) np.Bset.cstrs
              in
              let eq_at q =
                let row = Array.make w4 0 in
                row.(n_s + n_t + q) <- 1;
                row.(n_s + n_t + m + q) <- -1;
                Cstr.eq row 0
              in
              let strict_at q =
                let row = Array.make w4 0 in
                row.(n_s + n_t + q) <- 1;
                row.(n_s + n_t + m + q) <- -1;
                Cstr.ge row (-1)
              in
              let const_feasible pp =
                let eq_ok q =
                  match (os.oc_consts.(q), od.oc_consts.(q)) with
                  | Some a, Some b -> a = b
                  | _ -> true
                in
                let rec eqs_ok q = q >= pp || (eq_ok q && eqs_ok (q + 1)) in
                eqs_ok k
                && (pp >= m
                   ||
                   match (os.oc_consts.(pp), od.oc_consts.(pp)) with
                   | Some a, Some b -> a >= b + 1
                   | _ -> true)
              in
              List.for_all
                (fun rel ->
                  List.for_all
                    (fun np ->
                      List.for_all
                        (fun pp ->
                          (not (const_feasible pp))
                          ||
                          let eqs =
                            List.init (pp - k) (fun q -> eq_at (k + q))
                          in
                          let strict =
                            if pp < m then [ strict_at pp ] else []
                          in
                          Fm.real_shadow_empty ~nvars:w4
                            (rel4 rel @ np4 np @ s4 @ d4 @ eqs @ strict))
                        (List.init (m - k + 1) (fun q -> k + q)))
                    needed_pieces)
                rels
        in
        let remaining = ref needed in
        if not (Iset.is_empty !remaining) then begin
          let fully_covered =
            List.exists
              (fun os ->
                List.exists (fun k -> covers_all os k) (candidates os.o od.o))
              src_occs
          in
          if fully_covered then remaining := Iset.empty
          else
            List.iter
              (fun os ->
                List.iter
                  (fun k ->
                    if not (Iset.is_empty !remaining) then
                      match bad_set os od k with
                      | Some bad ->
                          remaining :=
                            Iset.coalesce (Iset.intersect !remaining bad)
                      | None -> ())
                  (candidates os.o od.o))
              src_occs;
          if not (Iset.is_empty !remaining) then begin
            let witness =
              match Iset.sample !remaining with
              | Some (_, pt) ->
                  Some (Array.sub pt 0 n_s, Array.sub pt n_s n_t)
              | None -> None
            in
            violations :=
              { vl_kind = kind_string d.Deps.kind;
                vl_src = d.Deps.src;
                vl_dst = d.Deps.dst;
                vl_array = d.Deps.array;
                vl_path = path_string od.o;
                vl_witness = witness;
                vl_detail =
                  Printf.sprintf
                    "%s dependence %s -> %s on %s: uncovered arcs at \
                     destination occurrence"
                    (kind_string d.Deps.kind) d.Deps.src d.Deps.dst
                    d.Deps.array
              }
              :: !violations
          end
        end)
      dst_occs
  in
  (* While Obs records, each dependence leaves one timed verify.dep
     event, so a trace shows which one the checker spends its time on. *)
  let timed_check_dep (d : Deps.t) =
    if not (Obs.is_enabled ()) then check_dep d
    else begin
      let t0 = Obs.elapsed_s () in
      Fun.protect
        ~finally:(fun () ->
          Obs.event ~ts_s:t0 ~dur_s:(Obs.elapsed_s () -. t0) ~cat:"verify"
            "verify.dep"
            [ ("kind", Obs.S (kind_string d.Deps.kind));
              ("src", Obs.S d.Deps.src);
              ("dst", Obs.S d.Deps.dst);
              ("array", Obs.S d.Deps.array)
            ])
        (fun () -> check_dep d)
    end
  in
  List.iter
    (fun d ->
      try timed_check_dep d
      with Structural msg ->
        violations :=
          { vl_kind = "structural";
            vl_src = d.Deps.src;
            vl_dst = d.Deps.dst;
            vl_array = d.Deps.array;
            vl_path = "";
            vl_witness = None;
            vl_detail = msg
          }
          :: !violations)
    deps;
  (* Live-out completeness: every instance of a statement writing a
     live-out array must execute in some occurrence. *)
  List.iter
    (fun (st : Prog.stmt) ->
      if List.mem st.Prog.write.Prog.array p.Prog.live_out then begin
        let dom = Bset.bind_params st.Prog.domain params in
        let execs =
          Iset.of_bsets
            (List.map
               (fun oc ->
                 Bset.make (Bset.space dom)
                   (exec_dom ~m ~cache:exec_cache oc))
               (by_stmt st.Prog.stmt_name))
        in
        let missing = Iset.subtract (Iset.of_bset dom) execs in
        if not (Iset.is_empty missing) then
          violations :=
            { vl_kind = "liveout";
              vl_src = st.Prog.stmt_name;
              vl_dst = st.Prog.stmt_name;
              vl_array = st.Prog.write.Prog.array;
              vl_path = "";
              vl_witness =
                (match Iset.sample missing with
                | Some (_, pt) -> Some (pt, [||])
                | None -> None);
              vl_detail =
                Printf.sprintf
                  "live-out writer %s has instances never executed by the \
                   schedule"
                  st.Prog.stmt_name
            }
            :: !violations
      end)
    p.Prog.stmts;
  { rep_occurrences = List.length occs;
    rep_deps_checked = List.length deps;
    rep_violations = List.rev !violations;
    rep_inexact = !inexact
  }

let violation_string v =
  let witness =
    match v.vl_witness with
    | Some (i, j) ->
        let vec a =
          "[" ^ String.concat "," (List.map string_of_int (Array.to_list a)) ^ "]"
        in
        if Array.length j = 0 then Printf.sprintf " witness %s" (vec i)
        else Printf.sprintf " witness %s -> %s" (vec i) (vec j)
    | None -> ""
  in
  Printf.sprintf "%s: %s%s%s" v.vl_kind v.vl_detail witness
    (if v.vl_path = "" then "" else "\n    at " ^ v.vl_path)

(* ------------------------------------------------------------------ *)
(* Reference schedule: textual order, identity bands                   *)
(* ------------------------------------------------------------------ *)

let naive_tree (p : Prog.t) =
  let domain =
    Iset.of_bsets (List.map (fun (s : Prog.stmt) -> s.Prog.domain) p.Prog.stmts)
  in
  let subtree (s : Prog.stmt) =
    let nd = Bset.n_dims s.Prog.domain in
    let body =
      if nd = 0 then Schedule_tree.Leaf
      else begin
        let dims = (Bset.space s.Prog.domain).Space.dims in
        let outs =
          List.init nd (fun i -> (dims.(i) ^ "t", Aff.dim i))
        in
        let bm =
          Bmap.intersect_domain
            (Bmap.from_affs ~in_tuple:s.Prog.stmt_name
               ~in_dims:(Array.to_list dims)
               ~out_tuple:(s.Prog.stmt_name ^ "_t") outs)
            s.Prog.domain
        in
        let band =
          Schedule_tree.mk_band ~partial:(Imap.of_bmap bm) ~permutable:true
            ~coincident:
              (Array.init nd (fun i -> i < nd - s.Prog.reduction_dims))
        in
        Schedule_tree.Band (band, Schedule_tree.Leaf)
      end
    in
    Schedule_tree.Filter (Iset.of_bset s.Prog.domain, body)
  in
  Schedule_tree.Domain
    (domain, Schedule_tree.Sequence (List.map subtree p.Prog.stmts))
