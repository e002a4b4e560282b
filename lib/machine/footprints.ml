open Presburger

type cluster = {
  stmts : string list;
  inst_tiles : (string * Imap.t) list;
  staged_arrays : string list;
  tile_count : int;
  parallel_tiles : bool;
      (* tiles can run concurrently (outer band coincident) *)
}

type traffic = { read_bytes : int; write_bytes : int }

let bound p (m : Imap.t) = Imap.bind_params m p.Prog.params

let written_arrays p (c : cluster) =
  List.map (fun s -> (Prog.find_stmt p s).Prog.write.Prog.array) c.stmts
  |> List.sort_uniq compare


(* One cluster for a plan root: live-out statements via the tiling
   relation, fused intermediates via reversed extension schedules. *)
let cluster_of_root (p : Prog.t) ~spaces (r : Core.Post_tiling.root) =
  let t = r.Core.Post_tiling.tiling in
  let liveout = Core.Spaces.find spaces t.Core.Tile_shapes.liveout_id in
  let live_stmts = liveout.Core.Spaces.group.Fusion.stmts in
  let live_tiles =
    List.map
      (fun s ->
        ( s,
          Imap.of_bmaps
            (List.filter
               (fun piece -> (Bmap.space piece).Space.in_tuple = s)
               (Imap.pieces t.Core.Tile_shapes.tile_rel)) ))
      live_stmts
  in
  let fused =
    List.concat_map
      (fun (e : Core.Tile_shapes.extension) ->
        let space = Core.Spaces.find spaces e.Core.Tile_shapes.space_id in
        List.map
          (fun s ->
            ( s,
              Imap.of_bmaps
                (List.map Bmap.reverse
                   (List.filter
                      (fun piece -> (Bmap.space piece).Space.out_tuple = s)
                      (Imap.pieces e.Core.Tile_shapes.ext_rel))) ))
          space.Core.Spaces.group.Fusion.stmts)
      t.Core.Tile_shapes.extensions
  in
  let staged_arrays =
    List.concat_map
      (fun (e : Core.Tile_shapes.extension) -> e.Core.Tile_shapes.via_arrays)
      t.Core.Tile_shapes.extensions
    |> List.sort_uniq compare
  in
  let inst_tiles =
    List.map (fun (s, m) -> (s, bound p m)) (live_tiles @ fused)
  in
  let tile_count =
    Iset.card (Imap.range (List.assoc (List.hd live_stmts) inst_tiles))
  in
  { stmts = List.map fst inst_tiles;
    inst_tiles;
    staged_arrays;
    tile_count;
    parallel_tiles = Fusion.n_parallel liveout.Core.Spaces.group >= 1
  }

(* Trivial cluster (no tiling): the whole space is one tile. *)
let cluster_of_space ?only (p : Prog.t) (s : Core.Spaces.t) =
  let stmts =
    match only with
    | None -> s.Core.Spaces.group.Fusion.stmts
    | Some subset ->
        List.filter (fun x -> List.mem x subset) s.Core.Spaces.group.Fusion.stmts
  in
  let inst_tiles =
    List.map
      (fun name ->
        let stmt = Prog.find_stmt p name in
        let dims = (Bset.space stmt.Prog.domain).Space.dims in
        let m =
          Bmap.from_affs ~in_tuple:name ~in_dims:(Array.to_list dims)
            ~out_tuple:("one%" ^ name) []
        in
        let m = Bmap.intersect_domain m stmt.Prog.domain in
        (name, bound p (Imap.of_bmap m)))
      stmts
  in
  { stmts;
    inst_tiles;
    staged_arrays = [];
    tile_count = 1;
    parallel_tiles = Fusion.n_parallel s.Core.Spaces.group >= 1
  }

(* Cluster for a rectangular-tiled fusion group (the baseline flows). *)
let cluster_of_group (p : Prog.t) ~tile_size (g : Fusion.group) ~name =
  if g.Fusion.band_dims = 0 || not g.Fusion.permutable then
    cluster_of_space p
      { Core.Spaces.id = 0;
        group = g;
        writes = [];
        reads = [];
        live_out = false
      }
  else begin
    let sizes = Array.make g.Fusion.band_dims tile_size in
    let rel = Core.Tile_shapes.tile_relation p g ~name ~tile_sizes:sizes in
    let inst_tiles =
      List.map
        (fun s ->
          ( s,
            bound p
              (Imap.of_bmaps
                 (List.filter
                    (fun piece -> (Bmap.space piece).Space.in_tuple = s)
                    (Imap.pieces rel))) ))
        g.Fusion.stmts
    in
    let tile_count =
      match inst_tiles with
      | (_, m) :: _ -> Iset.card (Imap.range m)
      | [] -> 0
    in
    { stmts = g.Fusion.stmts;
      inst_tiles;
      staged_arrays = [];
      tile_count;
      parallel_tiles = Fusion.n_parallel g >= 1
    }
  end

(* Arrays written and read only inside one cluster and not live-out are
   promoted to on-chip storage (the shared-memory promotion PPCG applies
   to values private to a kernel). *)
let finalize_staging (p : Prog.t) clusters =
  let accessed_elsewhere c a =
    List.exists
      (fun c' ->
        c' != c
        && List.exists
             (fun s ->
               let stmt = Prog.find_stmt p s in
               stmt.Prog.write.Prog.array = a
               || List.exists (fun (r : Prog.access) -> r.Prog.array = a) stmt.Prog.reads)
             c'.stmts)
      clusters
  in
  List.map
    (fun c ->
      let written = written_arrays p c in
      let read =
        List.concat_map
          (fun s ->
            List.map
              (fun (r : Prog.access) -> r.Prog.array)
              (Prog.find_stmt p s).Prog.reads)
          c.stmts
        |> List.sort_uniq compare
      in
      let private_arrays =
        List.filter
          (fun a ->
            List.mem a read
            && (not (List.mem a p.Prog.live_out))
            && not (accessed_elsewhere c a))
          written
      in
      { c with
        staged_arrays = List.sort_uniq compare (c.staged_arrays @ private_arrays)
      })
    clusters

let clusters_of_compiled_raw (c : Core.Pipeline.compiled) =
  let p = c.Core.Pipeline.prog in
  let spaces = c.Core.Pipeline.spaces in
  let plan = c.Core.Pipeline.plan in
  List.filter_map
    (fun (s : Core.Spaces.t) ->
      if List.mem s.Core.Spaces.id plan.Core.Post_tiling.skipped then None
      else
        match List.assoc_opt s.Core.Spaces.id plan.Core.Post_tiling.residual with
        | Some rest -> Some (cluster_of_space ~only:rest p s)
        | None -> (
            match
              List.find_opt
                (fun (r : Core.Post_tiling.root) ->
                  r.Core.Post_tiling.tiling.Core.Tile_shapes.liveout_id
                  = s.Core.Spaces.id)
                plan.Core.Post_tiling.roots
            with
            | Some r -> Some (cluster_of_root p ~spaces r)
            | None -> Some (cluster_of_space p s)))
    spaces

let clusters_of_compiled c =
  finalize_staging c.Core.Pipeline.prog (clusters_of_compiled_raw c)

let clusters_of_baseline ~tile_size (b : Core.Pipeline.baseline) =
  let p = b.Core.Pipeline.b_prog in
  let cs =
    List.mapi
      (fun i g -> cluster_of_group p ~tile_size g ~name:(Printf.sprintf "TB%d" i))
      b.Core.Pipeline.b_result.Fusion.groups
  in
  finalize_staging p cs

let stmt_instances (c : cluster) =
  List.map (fun (s, m) -> (s, Imap.card m)) c.inst_tiles

(* ------------------------------------------------------------------ *)
(* Traffic                                                             *)
(* ------------------------------------------------------------------ *)

let elem_bytes = Interp.elem_bytes

(* Transactions for one statement reading/writing array A: one per
   (tile, element) pair. *)
let access_transactions p (c : cluster) stmt_name (acc : Prog.access) =
  let stmt = Prog.find_stmt p stmt_name in
  let inst_tile = List.assoc stmt_name c.inst_tiles in
  (* tile -> elements *)
  let restricted = Bmap.intersect_domain acc.Prog.rel stmt.Prog.domain in
  let rel =
    Imap.apply_range_approx (Imap.reverse inst_tile)
      (Imap.of_bmap (Bmap.bind_params restricted p.Prog.params))
  in
  Imap.card (Imap.coalesce rel)

(* Per-array attribution is the primitive; the totals below are defined
   as sums over it, so per-array traffic always adds up to the program
   totals exactly (the same integer terms, regrouped). *)
let cluster_traffic_by_array (p : Prog.t) (c : cluster) =
  let tbl : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 8 in
  let cell a =
    match Hashtbl.find_opt tbl a with
    | Some c -> c
    | None ->
        let c = (ref 0, ref 0) in
        Hashtbl.add tbl a c;
        c
  in
  let written_here = written_arrays p c in
  List.iter
    (fun stmt_name ->
      let stmt = Prog.find_stmt p stmt_name in
      List.iter
        (fun (acc : Prog.access) ->
          let a = acc.Prog.array in
          if List.mem a written_here || List.mem a c.staged_arrays then ()
          else begin
            let r, _ = cell a in
            r := !r + (elem_bytes * access_transactions p c stmt_name acc)
          end)
        stmt.Prog.reads)
    c.stmts;
  (* write-back: one transaction per element finally written, counting
     each array once even when several statements update it *)
  List.iter
    (fun a ->
      if List.mem a c.staged_arrays then ()
      else begin
        let region =
          Presburger.Iset.of_bsets
            (List.filter_map
               (fun stmt_name ->
                 let stmt = Prog.find_stmt p stmt_name in
                 if stmt.Prog.write.Prog.array = a then begin
                   let restricted =
                     Bmap.intersect_domain stmt.Prog.write.Prog.rel stmt.Prog.domain
                   in
                   Some
                     (Bmap.range_approx (Bmap.bind_params restricted p.Prog.params))
                 end
                 else None)
               c.stmts)
        in
        let _, w = cell a in
        w := !w + (elem_bytes * Presburger.Iset.card region)
      end)
    (written_arrays p c);
  Hashtbl.fold
    (fun a (r, w) acc -> (a, { read_bytes = !r; write_bytes = !w }) :: acc)
    tbl []
  |> List.sort compare

let cluster_traffic (p : Prog.t) (c : cluster) =
  List.fold_left
    (fun acc (_, t) ->
      { read_bytes = acc.read_bytes + t.read_bytes;
        write_bytes = acc.write_bytes + t.write_bytes
      })
    { read_bytes = 0; write_bytes = 0 }
    (cluster_traffic_by_array p c)

let program_traffic_by_array (p : Prog.t) clusters =
  let tbl : (string, traffic) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun c ->
      List.iter
        (fun (a, t) ->
          let acc =
            Option.value ~default:{ read_bytes = 0; write_bytes = 0 }
              (Hashtbl.find_opt tbl a)
          in
          Hashtbl.replace tbl a
            { read_bytes = acc.read_bytes + t.read_bytes;
              write_bytes = acc.write_bytes + t.write_bytes
            })
        (cluster_traffic_by_array p c))
    clusters;
  Hashtbl.fold (fun a t acc -> (a, t) :: acc) tbl [] |> List.sort compare

let program_traffic (p : Prog.t) clusters =
  List.fold_left
    (fun acc (_, t) ->
      { read_bytes = acc.read_bytes + t.read_bytes;
        write_bytes = acc.write_bytes + t.write_bytes
      })
    { read_bytes = 0; write_bytes = 0 }
    (program_traffic_by_array p clusters)

let staged_bytes (p : Prog.t) (c : cluster) =
  (* maximum over tiles of the staged-array footprints ~ footprint of an
     interior tile; approximate with total staged elements / tile count,
     rounded up, times a safety factor of the overlap (use the max via
     per-array transactions / tiles). *)
  List.fold_left
    (fun acc a ->
      let per_tile =
        List.fold_left
          (fun best stmt_name ->
            let stmt = Prog.find_stmt p stmt_name in
            let reads =
              List.filter (fun (r : Prog.access) -> r.Prog.array = a) stmt.Prog.reads
            in
            List.fold_left
              (fun best r ->
                let tx = access_transactions p c stmt_name r in
                max best ((tx + c.tile_count - 1) / max 1 c.tile_count))
              best reads)
          0 c.stmts
      in
      acc + (per_tile * elem_bytes))
    0 c.staged_arrays

let max_staged_bytes (p : Prog.t) clusters =
  List.fold_left (fun acc c -> max acc (staged_bytes p c)) 0 clusters
