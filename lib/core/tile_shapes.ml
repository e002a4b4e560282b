open Presburger

type extension = {
  space_id : int;
  ext_rel : Imap.t;
  via_arrays : string list;
  parents : int list;
}

type tiling = {
  liveout_id : int;
  tile_space : string;
  tile_sizes : int array;
  tile_rel : Imap.t;
  m : int;
  extensions : extension list;
  untiled : int list;
}

let tile_relation (p : Prog.t) (g : Fusion.group) ~name ~tile_sizes =
  let band = Build_tree.group_band p g ~name:(name ^ "_b") in
  let pieces =
    List.map
      (fun piece ->
        let sp = Bmap.space piece in
        let fd =
          Schedule_tree.floor_div_map ~tuple_in:sp.Space.out_tuple
            ~dims:sp.Space.out_dims ~tuple_out:name ~tile_sizes
        in
        Bmap.apply_range piece fd)
      (Imap.pieces band.Schedule_tree.partial)
  in
  Imap.of_bmaps pieces

(* Read accesses of the statements of a space, restricted to their
   domains, grouped by array. *)
let restricted_reads (p : Prog.t) (space : Spaces.t) =
  List.concat_map
    (fun sname ->
      let s = Prog.find_stmt p sname in
      List.map
        (fun (a : Prog.access) ->
          (a.Prog.array, Bmap.intersect_domain a.Prog.rel s.Prog.domain))
        s.Prog.reads)
    space.Spaces.group.Fusion.stmts

let footprint_of_tile ~tile (p : Prog.t) rel =
  let fixed =
    Imap.pieces rel
    |> List.map (fun piece ->
           let piece = Bmap.bind_params piece p.Prog.params in
           let piece =
             Array.to_list tile
             |> List.mapi (fun d v -> (d, v))
             |> List.fold_left (fun m (d, v) -> Bmap.fix_in_dim m d v) piece
           in
           Bmap.range piece)
  in
  Iset.of_bsets fixed

(* Cheap estimate of the recomputation a fused statement incurs under an
   extension schedule: sample an interior tile, multiply its box
   footprint by the tile count, compare with the statement's domain
   size. The guard models the cost model the paper's AKG implementation
   couples with Algorithm 1 (and the paper's own caveat about chains of
   reductions): fusion that recomputes a producer almost wholesale in
   every tile is rejected. *)
let recompute_ratio (p : Prog.t) (stmt : Prog.stmt) ext_s =
  try
    let total =
      List.fold_left
        (fun acc piece ->
          let piece = Bmap.bind_params piece p.Prog.params in
          let tiles_box = Bset.box_hull (Bmap.domain_approx piece) in
          let tile_count =
            Array.fold_left (fun a (l, h) -> a * max 0 (h - l + 1)) 1 tiles_box
          in
          if tile_count = 0 then acc
          else begin
            let fixed = ref piece in
            Array.iteri
              (fun d (l, h) -> fixed := Bmap.fix_in_dim !fixed d ((l + h) / 2))
              tiles_box;
            let per_tile = Bset.box_card (Bmap.range_approx !fixed) in
            acc + (per_tile * tile_count)
          end)
        0 (Imap.pieces ext_s)
    in
    float_of_int total /. float_of_int (max 1 (Prog.domain_card p stmt))
  with Fm.Inexact _ | Invalid_argument _ -> 1.0

(* f maps: per upwards-exposed array, the relation (4) from tile
   coordinates to the data elements the tile needs. *)
module Fmap = Map.Make (String)

let construct ?(recompute_limit = 4.0) (p : Prog.t) ~(liveout : Spaces.t)
    ~intermediates ~tile_sizes ~parallelism_cap =
  Obs.span "tile_shapes.construct" @@ fun () ->
  let g = liveout.Spaces.group in
  assert (Array.length tile_sizes = g.Fusion.band_dims);
  let tile_space = Printf.sprintf "T%d" liveout.Spaces.id in
  let tile_rel = tile_relation p g ~name:tile_space ~tile_sizes in
  let m = min (Fusion.n_parallel g) parallelism_cap in
  (* Upwards exposed data of the live-out space: its reads of arrays
     written by intermediate spaces, composed with the reverse tiling
     relation (relation (4)). *)
  let written_by_intermediate a =
    List.exists (fun (s : Spaces.t) -> List.mem a s.Spaces.writes) intermediates
  in
  let rev_tile = Imap.reverse tile_rel in
  let add_f fmap (array, rel_pieces, parents) =
    let prev_rel, prev_parents =
      match Fmap.find_opt array fmap with
      | Some (r, ps) -> (r, ps)
      | None -> (Imap.empty, [])
    in
    Fmap.add array
      ( Imap.hull_compress (Imap.union prev_rel rel_pieces),
        prev_parents @ List.filter (fun x -> not (List.mem x prev_parents)) parents )
      fmap
  in
  let initial_f =
    List.fold_left
      (fun fmap (array, read_rel) ->
        if written_by_intermediate array then
          add_f fmap
            ( array,
            Imap.hull_compress
              (Imap.apply_range_approx rev_tile (Imap.of_bmap read_rel)),
            [ -1 ] )
        else fmap)
      Fmap.empty (restricted_reads p liveout)
  in
  (* Worklist over intermediate spaces (lines 9-16 of Algorithm 1): a
     space is processed once some array it writes has a footprint
     relation; its extension schedule then exposes the data it reads. *)
  let rec loop fmap pending extensions untiled =
    (* ready: some written array already has a footprint relation, and no
       still-pending space reads this space's arrays (all consumers have
       contributed their upwards-exposed data, so the extension schedule
       covers every in-tile use). *)
    let ready =
      List.find_opt
        (fun (s : Spaces.t) ->
          List.exists (fun a -> Fmap.mem a fmap) s.Spaces.writes
          && not
               (List.exists
                  (fun (q : Spaces.t) ->
                    q.Spaces.id <> s.Spaces.id
                    && List.exists (fun a -> List.mem a q.Spaces.reads) s.Spaces.writes)
                  pending))
        pending
    in
    match ready with
    | None -> (List.rev extensions, untiled @ List.map (fun (s : Spaces.t) -> s.Spaces.id) pending)
    | Some space ->
        let pending = List.filter (fun (s : Spaces.t) -> s.Spaces.id <> space.Spaces.id) pending in
        let n = Fusion.n_parallel space.Spaces.group in
        if m > n then begin
          (* the m > n guard: fusing would destroy the live-out space's
             parallelism; reject (line 8). *)
          Obs.count "tile_shapes.parallelism_reject";
          Obs.event ~cat:"tiling" "tile_shapes.reject"
            [ ("liveout", Obs.I liveout.Spaces.id);
              ("space", Obs.I space.Spaces.id);
              ("stmts", Obs.S (String.concat "+" space.Spaces.group.Fusion.stmts));
              ("reason", Obs.S "parallelism");
              ("liveout_parallel", Obs.I m);
              ("space_parallel", Obs.I n)
            ];
          loop fmap pending extensions (space.Spaces.id :: untiled)
        end
        else begin
          let via_arrays, parents =
            List.fold_left
              (fun (arrays, parents) a ->
                match Fmap.find_opt a fmap with
                | Some (_, ps) ->
                    ( a :: arrays,
                      parents @ List.filter (fun x -> not (List.mem x parents)) ps )
                | None -> (arrays, parents))
              ([], []) space.Spaces.writes
          in
          (* Lines 9-16 of Algorithm 1: a statement-level worklist inside
             the space. Each statement's extension schedule composes the
             footprint of the array it writes with its reversed write
             access (relation (6)); its reads then expose data produced
             by statements not yet handled (in this space or pending
             spaces), extending f. Statements are processed
             consumers-first so the footprints are complete. *)
          let written_by name = (Prog.find_stmt p name).Prog.write.Prog.array in
          let reads_of name =
            List.map (fun (a : Prog.access) -> a.Prog.array)
              (Prog.find_stmt p name).Prog.reads
          in
          let rec stmt_loop fmap remaining blocked ext_pieces =
            match remaining with
            | [] -> (fmap, ext_pieces)
            | _ ->
                (* [blocked] holds statements left unfused (dynamic
                   guards): anything they read must also stay unfused,
                   since the skipped original would otherwise compute
                   their inputs too late. *)
                let consumer_of name q =
                  q <> name && List.mem (written_by name) (reads_of q)
                in
                let ready_stmt =
                  let candidate name =
                    Fmap.mem (written_by name) fmap
                    && (not (List.exists (consumer_of name) remaining))
                    && not (List.exists (consumer_of name) blocked)
                  in
                  match List.find_opt candidate remaining with
                  | Some s -> Some s
                  | None ->
                      (* cycle fallback: any unblocked statement with a
                         footprint *)
                      List.find_opt
                        (fun s ->
                          Fmap.mem (written_by s) fmap
                          && not (List.exists (consumer_of s) blocked))
                        remaining
                in
                (match ready_stmt with
                | None -> (fmap, ext_pieces)
                | Some name when (Prog.find_stmt p name).Prog.guard <> None ->
                    (* dynamically guarded (while-loop) statement: its
                       trip count is opaque, so it is never fused through
                       an extension schedule; it stays in the original
                       nest together with its exclusive producers (the
                       paper's equake case). *)
                    Obs.count "tile_shapes.guard_blocked";
                    Obs.event ~cat:"tiling" "tile_shapes.reject"
                      [ ("liveout", Obs.I liveout.Spaces.id);
                        ("space", Obs.I space.Spaces.id);
                        ("stmt", Obs.S name);
                        ("reason", Obs.S "dynamic_guard")
                      ];
                    stmt_loop fmap
                      (List.filter (fun s -> s <> name) remaining)
                      (name :: blocked) ext_pieces
                | Some name ->
                    let stmt = Prog.find_stmt p name in
                    let write_rel =
                      Bmap.intersect_domain stmt.Prog.write.Prog.rel stmt.Prog.domain
                    in
                    let f, _ = Fmap.find (written_by name) fmap in
                    let ext_s =
                      Imap.hull_compress
                        (Imap.apply_range_approx f
                           (Imap.of_bmap (Bmap.reverse write_rel)))
                    in
                    let ratio = recompute_ratio p stmt ext_s in
                    if ratio > recompute_limit then begin
                      (* fusing this statement would recompute it nearly
                         wholesale in every tile: reject (cost model) *)
                      Obs.count "tile_shapes.recompute_reject";
                      Obs.event ~cat:"tiling" "tile_shapes.reject"
                        [ ("liveout", Obs.I liveout.Spaces.id);
                          ("space", Obs.I space.Spaces.id);
                          ("stmt", Obs.S name);
                          ("reason", Obs.S "recompute_cost");
                          ("ratio", Obs.F ratio);
                          ("limit", Obs.F recompute_limit)
                        ];
                      stmt_loop fmap
                        (List.filter (fun s -> s <> name) remaining)
                        (name :: blocked) ext_pieces
                    end
                    else begin
                    let remaining = List.filter (fun s -> s <> name) remaining in
                    (* expose the data this statement reads *)
                    let fmap =
                      List.fold_left
                        (fun fmap (r : Prog.access) ->
                          let produced_later =
                            List.exists (fun s -> written_by s = r.Prog.array) remaining
                            || List.exists
                                 (fun (s : Spaces.t) ->
                                   List.mem r.Prog.array s.Spaces.writes)
                                 pending
                          in
                          if produced_later && r.Prog.array <> written_by name then begin
                            let read_rel =
                              Bmap.intersect_domain r.Prog.rel stmt.Prog.domain
                            in
                            let tile_to_data =
                              Imap.hull_compress
                                (Imap.apply_range_approx ext_s
                                   (Imap.of_bmap read_rel))
                            in
                            if Imap.is_empty tile_to_data then fmap
                            else add_f fmap (r.Prog.array, tile_to_data, [ space.Spaces.id ])
                          end
                          else fmap)
                        fmap stmt.Prog.reads
                    in
                    stmt_loop fmap remaining blocked (ext_pieces @ Imap.pieces ext_s)
                    end)
          in
          let fmap, ext_pieces =
            stmt_loop fmap space.Spaces.group.Fusion.stmts [] []
          in
          if ext_pieces = [] then begin
            Obs.count "tile_shapes.untiled";
            Obs.event ~cat:"tiling" "tile_shapes.reject"
              [ ("liveout", Obs.I liveout.Spaces.id);
                ("space", Obs.I space.Spaces.id);
                ("stmts", Obs.S (String.concat "+" space.Spaces.group.Fusion.stmts));
                ("reason", Obs.S "no_extension_schedule")
              ];
            loop fmap pending extensions (space.Spaces.id :: untiled)
          end
          else begin
            Obs.count "tile_shapes.extensions";
            Obs.event ~cat:"tiling" "tile_shapes.extend"
              [ ("liveout", Obs.I liveout.Spaces.id);
                ("space", Obs.I space.Spaces.id);
                ("stmts", Obs.S (String.concat "+" space.Spaces.group.Fusion.stmts));
                ("via", Obs.S (String.concat "+" via_arrays))
              ];
            let ext_rel = Imap.coalesce (Imap.of_bmaps ext_pieces) in
            let extension =
              { space_id = space.Spaces.id; ext_rel; via_arrays; parents }
            in
            loop fmap pending (extension :: extensions) untiled
          end
        end
  in
  let extensions, untiled = loop initial_f intermediates [] [] in
  let extensions =
    List.sort (fun a b -> compare a.space_id b.space_id) extensions
  in
  { liveout_id = liveout.Spaces.id;
    tile_space;
    tile_sizes;
    tile_rel;
    m;
    extensions;
    untiled
  }

let fused_stmts (e : extension) =
  List.fold_left
    (fun acc piece ->
      let t = (Bmap.space piece).Space.out_tuple in
      if List.mem t acc then acc else acc @ [ t ])
    []
    (Imap.pieces e.ext_rel)
