open Presburger

type heuristic = Minfuse | Smartfuse | Maxfuse | Hybridfuse

let heuristic_name = function
  | Minfuse -> "minfuse"
  | Smartfuse -> "smartfuse"
  | Maxfuse -> "maxfuse"
  | Hybridfuse -> "hybridfuse"

type group = {
  stmts : string list;
  band_dims : int;
  shifts : (string * int array) list;
  permutable : bool;
  coincident : bool array;
  serialized : bool;
}

type result = { groups : group list; search_steps : int; budget_exceeded : bool }

let n_parallel g =
  if g.serialized then 0
  else begin
    let rec go i =
      if i >= Array.length g.coincident || not g.coincident.(i) then i
      else go (i + 1)
    in
    go 0
  end

(* ------------------------------------------------------------------ *)
(* Dependence distance bounds per band dimension                       *)
(* ------------------------------------------------------------------ *)

(* One piece of a dependence relation, with memo slots for its distance
   bounds: [slots.(dim)] holds [Deps.delta_bounds] on that dimension once
   a group asks for it. [schedule] builds its pieces once, so a call
   computes each bound at most once. *)
type piece = {
  p_src : string;
  p_dst : string;
  rel : Bmap.t;
  slots : (int option * int option) option array;
}

let pieces_of (deps : Deps.t list) =
  List.concat_map
    (fun (d : Deps.t) ->
      List.map
        (fun rel ->
          { p_src = d.Deps.src;
            p_dst = d.Deps.dst;
            rel;
            slots = Array.make (min (Bmap.n_in rel) (Bmap.n_out rel)) None
          })
        (Imap.pieces d.Deps.rel))
    deps

let bound_of (p : Prog.t) pc dim =
  match pc.slots.(dim) with
  | Some b -> b
  | None ->
      let b = Deps.delta_bounds p pc.rel ~src_dim:dim ~dst_dim:dim in
      pc.slots.(dim) <- Some b;
      b

(* All dependence pieces between two statements of a candidate group,
   with distance bounds on each of the first [band_dims] dimensions.
   Distances are only meaningful on dims shared by both statements. *)
type edge = { e_src : string; e_dst : string; bounds : (int option * int option) array }

let edges_of p pieces ~band_dims stmts =
  let in_group s = List.mem s stmts in
  List.filter_map
    (fun pc ->
      if in_group pc.p_src && in_group pc.p_dst then
        Some
          { e_src = pc.p_src;
            e_dst = pc.p_dst;
            bounds = Array.init band_dims (bound_of p pc)
          }
      else None)
    pieces

(* Minimal non-negative shifts satisfying, for every edge and dim,
   lo + shift(dst) - shift(src) >= 0. Difference-constraint solving by
   Bellman-Ford. Returns None when unbounded distances or a positive
   cycle make constant shifting impossible. *)
let solve_shifts ~band_dims ~stmts edges =
  let n = List.length stmts in
  let index s =
    match List.find_index (( = ) s) stmts with
    | Some i -> i
    | None -> assert false
  in
  let shift = Array.make_matrix n band_dims 0 in
  let feasible = ref true in
  for dim = 0 to band_dims - 1 do
    if !feasible then begin
      (* self edges: no shift can fix a negative self distance *)
      List.iter
        (fun e ->
          if e.e_src = e.e_dst then
            match fst e.bounds.(dim) with
            | Some lo when lo < 0 -> feasible := false
            | Some _ -> ()
            | None -> feasible := false)
        edges;
      let changed = ref true and rounds = ref 0 in
      while !feasible && !changed do
        changed := false;
        incr rounds;
        if !rounds > n + 1 then feasible := false
        else
          List.iter
            (fun e ->
              if e.e_src <> e.e_dst then
                match fst e.bounds.(dim) with
                | None -> feasible := false
                | Some lo ->
                    let s = index e.e_src and d = index e.e_dst in
                    if shift.(d).(dim) < shift.(s).(dim) - lo then begin
                      shift.(d).(dim) <- shift.(s).(dim) - lo;
                      changed := true
                    end)
            edges
      done
    end
  done;
  if not !feasible then None
  else begin
    (* normalize to non-negative with minimum zero per dim *)
    for dim = 0 to band_dims - 1 do
      let m = ref max_int in
      for i = 0 to n - 1 do
        m := min !m shift.(i).(dim)
      done;
      if n > 0 then
        for i = 0 to n - 1 do
          shift.(i).(dim) <- shift.(i).(dim) - !m
        done
    done;
    Some (List.mapi (fun i s -> (s, Array.copy shift.(i))) stmts)
  end

let attributes ~band_dims ~shifts edges =
  let shift_of s = List.assoc s shifts in
  let permutable = ref true in
  let coincident = Array.make band_dims true in
  List.iter
    (fun e ->
      let ss = shift_of e.e_src and sd = shift_of e.e_dst in
      for dim = 0 to band_dims - 1 do
        let adj = sd.(dim) - ss.(dim) in
        (match fst e.bounds.(dim) with
        | Some lo ->
            if lo + adj < 0 then permutable := false;
            if lo + adj <> 0 then coincident.(dim) <- false
        | None ->
            permutable := false;
            coincident.(dim) <- false);
        match snd e.bounds.(dim) with
        | Some hi -> if hi + adj <> 0 then coincident.(dim) <- false
        | None -> coincident.(dim) <- false
      done)
    edges;
  (!permutable, coincident)

let max_band_dims (p : Prog.t) stmts =
  let d =
    List.fold_left
      (fun acc s -> min acc (Bset.n_dims (Prog.find_stmt p s).Prog.domain))
      max_int stmts
  in
  if d = max_int then 0 else d

let group_of ?band_dims (p : Prog.t) pieces stmts =
  let band_dims =
    match band_dims with Some d -> d | None -> max_band_dims p stmts
  in
  let edges = edges_of p pieces ~band_dims stmts in
  match solve_shifts ~band_dims ~stmts edges with
  | Some shifts ->
      let permutable, coincident = attributes ~band_dims ~shifts edges in
      { stmts; band_dims; shifts; permutable; coincident; serialized = false }
  | None ->
      (* cannot align by constant shifts: keep the group but serialize *)
      { stmts;
        band_dims;
        shifts = List.map (fun s -> (s, Array.make band_dims 0)) stmts;
        permutable = false;
        coincident = Array.make band_dims false;
        serialized = true
      }

let group_of_stmts ?band_dims p ~deps stmts =
  group_of ?band_dims p (pieces_of deps) stmts

(* ------------------------------------------------------------------ *)
(* Heuristics                                                          *)
(* ------------------------------------------------------------------ *)

(* Is there a producer-consumer relation between the two groups? *)
let connected deps g1 g2 =
  List.exists
    (fun (d : Deps.t) ->
      d.Deps.kind = Deps.Raw
      && List.mem d.Deps.src g1.stmts
      && List.mem d.Deps.dst g2.stmts)
    deps

(* maxfuse models the exponential blow-up of aggressive ILP-based fusion:
   it validates its shifts by exhaustively enumerating candidate shift
   vectors before falling back to the difference-constraint solution.
   The enumeration honestly explores (shift range)^(stmts * dims)
   candidates, counted against [max_steps]. Each edge and band dimension
   is one flat row of [rows]: source slot, destination slot and lower
   distance, valid when [lo + vec.(dst) - vec.(src) >= 0]; an unbounded
   lower distance fails every vector. *)
let maxfuse_search ~max_steps ~steps ~band_dims candidate edges =
  let n = List.length candidate.stmts in
  let range = 4 in
  let dims = band_dims * n in
  let vec = Array.make dims 0 in
  let slot s dim =
    (Option.get (List.find_index (( = ) s) candidate.stmts) * band_dims) + dim
  in
  let unbounded =
    List.exists (fun e -> Array.exists (fun (lo, _) -> lo = None) e.bounds) edges
  in
  let rows =
    Array.of_list
      (List.concat_map
         (fun e ->
           List.concat
             (List.init band_dims (fun dim ->
                  [ slot e.e_src dim;
                    slot e.e_dst dim;
                    Option.value ~default:0 (fst e.bounds.(dim))
                  ])))
         edges)
  in
  let valid () =
    let ok = ref (not unbounded) and r = ref 0 in
    while !ok && !r < Array.length rows do
      if rows.(!r + 2) + vec.(rows.(!r + 1)) - vec.(rows.(!r)) < 0 then
        ok := false;
      r := !r + 3
    done;
    !ok
  in
  let exceeded = ref false in
  let rec enum k =
    if !steps > max_steps then begin
      exceeded := true;
      false
    end
    else if k = dims then begin
      incr steps;
      valid ()
    end
    else begin
      let found = ref false in
      let v = ref 0 in
      while (not !found) && !v <= range && not !exceeded do
        vec.(k) <- !v;
        if enum (k + 1) then found := true;
        incr v
      done;
      !found
    end
  in
  let _found = enum 0 in
  !exceeded

let guarded_write_arrays (p : Prog.t) stmts =
  List.filter_map
    (fun s ->
      let st = Prog.find_stmt p s in
      if st.Prog.guard <> None then Some st.Prog.write.Prog.array else None)
    stmts

let accesses_any (p : Prog.t) stmt arrays =
  let st = Prog.find_stmt p stmt in
  List.mem st.Prog.write.Prog.array arrays
  || List.exists (fun (r : Prog.access) -> List.mem r.Prog.array arrays) st.Prog.reads

(* Dynamic-counted (while-style) nests restrict fusion: the conservative
   heuristics only fuse a guarded group with statements touching the
   guarded statement's accumulator (the components of the same sparse
   computation); the aggressive heuristic treats the dynamic nest as an
   unfusable black box, exactly the behaviour the paper reports for
   PPCG on equake. *)
let guard_merge_ok (p : Prog.t) heuristic stmts_a stmts_b =
  let all = stmts_a @ stmts_b in
  let garr = guarded_write_arrays p all in
  if garr = [] then true
  else
    match heuristic with
    | Maxfuse ->
        (* the aggressive heuristic only keeps the dynamic nest's own
           writers together (initialization + while-loop reduction); any
           consumer is pushed into the downstream groups instead *)
        List.for_all
          (fun s -> List.mem (Prog.find_stmt p s).Prog.write.Prog.array garr)
          all
    | Minfuse | Smartfuse | Hybridfuse ->
        List.for_all (fun s -> accesses_any p s garr) all

(* Merge adjacent atoms that share an imperfect-nest tag: the start-up
   grouping never splits an original loop nest. *)
let merge_nest_atoms (p : Prog.t) atoms =
  let nests stmts =
    List.sort_uniq compare (List.map (fun s -> (Prog.find_stmt p s).Prog.nest) stmts)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | atom :: rest -> (
        match acc with
        | prev :: acc_rest
          when List.exists (fun n -> List.mem n (nests prev)) (nests atom) ->
            go ((prev @ atom) :: acc_rest) rest
        | _ -> go (atom :: acc) rest)
  in
  go [] atoms

let schedule ?(max_steps = 2_000_000) ?(fuse_reductions = true) (p : Prog.t)
    ~deps ~target_parallelism heuristic =
  Obs.span "fusion.schedule" @@ fun () ->
  let steps = ref 0 in
  let budget_exceeded = ref false in
  let pieces = pieces_of deps in
  let atoms = merge_nest_atoms p (Deps.sccs p deps) in
  let atom_groups =
    List.map
      (fun stmts ->
        steps := !steps + List.length stmts;
        group_of p pieces stmts)
      atoms
  in
  (* [try_merge] returns the fused candidate or, on rejection, the
     failing predicate plus any diagnostic attributes -- both feed the
     decision-trace events consumed by [memcomp explain]. *)
  let try_merge prev g =
    Obs.count "fusion.merge_attempts";
    let stmts = prev.stmts @ g.stmts in
    steps := !steps + (List.length stmts * List.length stmts);
    match heuristic with
    | Minfuse -> Error ("minfuse_policy", [])
    | _ when not (guard_merge_ok p heuristic prev.stmts g.stmts) ->
        Error ("guard_barrier", [])
    | Smartfuse | Hybridfuse ->
        if not (connected deps prev g) then Error ("not_connected", [])
        else if
          (not fuse_reductions)
          && List.exists
               (fun st -> (Prog.find_stmt p st).Prog.reduction_dims > 0)
               prev.stmts
        then
          (* models the isl/AKG smartfuse behaviour on the NPU: a group
             carrying a reduction is not fused with its consumers
             (Table III: "smartfuse failed to fuse convolutions and
             batch normalizations") *)
          Error ("reduction_barrier", [])
        else begin
          (* Fuse on the deepest shared band that keeps the group
             permutable and parallel enough; shrinking the band models
             outer-level-only fusion (e.g. 2mm fuses on i alone). *)
          let max_bd = max_band_dims p stmts in
          let deepest = ref [] in
          let rec attempt bd =
            if bd < 1 then
              Error
                ( "no_legal_band",
                  ("band_dims_tried", Obs.I max_bd) :: !deepest )
            else begin
              steps := !steps + List.length stmts;
              let candidate = group_of ~band_dims:bd p pieces stmts in
              if bd = max_bd then
                deepest :=
                  [ ("serialized", Obs.B candidate.serialized);
                    ("permutable", Obs.B candidate.permutable);
                    ("parallel_dims", Obs.I (n_parallel candidate));
                    ("target_parallelism", Obs.I target_parallelism)
                  ];
              if
                (not candidate.serialized)
                && candidate.permutable
                && n_parallel candidate >= target_parallelism
              then Ok candidate
              else attempt (bd - 1)
            end
          in
          attempt max_bd
        end
    | Maxfuse ->
        let candidate = group_of p pieces stmts in
        let edges =
          edges_of p pieces ~band_dims:candidate.band_dims candidate.stmts
        in
        let exceeded =
          maxfuse_search ~max_steps ~steps ~band_dims:candidate.band_dims
            candidate edges
        in
        if exceeded then budget_exceeded := true;
        Ok candidate
  in
  let decision_base prev g =
    [ ("heuristic", Obs.S (heuristic_name heuristic));
      ("prev", Obs.S (String.concat "+" prev.stmts));
      ("next", Obs.S (String.concat "+" g.stmts))
    ]
  in
  let groups =
    match heuristic with
    | Minfuse -> atom_groups
    | _ ->
        List.fold_left
          (fun acc g ->
            match acc with
            | [] -> [ g ]
            | prev :: rest -> (
                match try_merge prev g with
                | Ok merged ->
                    Obs.count "fusion.fuse_accept";
                    Obs.event ~cat:"fusion" "fusion.accept"
                      (decision_base prev g
                      @ [ ("band_dims", Obs.I merged.band_dims);
                          ("parallel_dims", Obs.I (n_parallel merged))
                        ]);
                    merged :: rest
                | Error (reason, details) ->
                    Obs.count "fusion.fuse_reject";
                    Obs.event ~cat:"fusion" "fusion.reject"
                      (decision_base prev g
                      @ (("reason", Obs.S reason) :: details));
                    g :: prev :: rest))
          [] atom_groups
        |> List.rev
  in
  Obs.add "fusion.search_steps" !steps;
  Obs.add "fusion.groups" (List.length groups);
  { groups; search_steps = !steps; budget_exceeded = !budget_exceeded }
