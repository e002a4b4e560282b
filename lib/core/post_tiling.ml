open Presburger

type root = { tiling : Tile_shapes.tiling; fused_ids : int list }

type plan = {
  roots : root list;
  skipped : int list;  (* fully fused spaces: original subtree suppressed *)
  residual : (int * string list) list;
      (* partially fused spaces: statements still executed in the
         original nest (unfused producers of dynamically guarded code) *)
  standalone : int list;
}

(* Over-approximated instance set of an extension; used only for the
   shared-space disjointness test, where over-approximation is
   conservative (a spurious overlap prevents fusion, never causing
   redundant computation). *)
let ext_range (p : Prog.t) (e : Tile_shapes.extension) =
  Iset.of_bsets
    (List.map
       (fun piece -> Bset.bind_params (Bmap.range_approx piece) p.Prog.params)
       (Imap.pieces e.Tile_shapes.ext_rel))

let tilable (s : Spaces.t) ~parallelism_cap =
  let g = s.Spaces.group in
  g.Fusion.band_dims > 0 && g.Fusion.permutable
  && min (Fusion.n_parallel g) parallelism_cap >= 1

(* Remove a space's extension from a tiling, cascading to extensions
   that were derived through it. *)
let rec unfuse_from (t : Tile_shapes.tiling) id =
  let removed, kept =
    List.partition
      (fun (e : Tile_shapes.extension) ->
        e.Tile_shapes.space_id = id || List.mem id e.Tile_shapes.parents)
      t.Tile_shapes.extensions
  in
  let t = { t with Tile_shapes.extensions = kept } in
  List.fold_left
    (fun t (e : Tile_shapes.extension) ->
      if e.Tile_shapes.space_id = id then t
      else unfuse_from t e.Tile_shapes.space_id)
    t removed

let plan ?(fusable = fun (_ : Spaces.t) -> true) ?recompute_limit (p : Prog.t)
    ~spaces ~tile_sizes_for ~parallelism_cap =
  Obs.span "post_tiling.plan" @@ fun () ->
  let liveouts = List.filter (fun (s : Spaces.t) -> s.Spaces.live_out) spaces in
  let fused_status = Hashtbl.create 16 in
  (* claimed space -> list of liveout ids that fused it *)
  let tilings : (int, Tile_shapes.tiling) Hashtbl.t = Hashtbl.create 8 in
  let standalone = ref [] in
  let processed_roots = ref [] in
  let is_claimed id = Hashtbl.mem fused_status id in
  let run_root (s : Spaces.t) =
    Obs.count "post_tiling.roots_run";
    processed_roots := !processed_roots @ [ s.Spaces.id ];
    if not (tilable s ~parallelism_cap) then begin
      Obs.count "post_tiling.standalone";
      Obs.event ~cat:"post_tiling" "post_tiling.standalone"
        [ ("space", Obs.I s.Spaces.id);
          ("stmts", Obs.S (String.concat "+" s.Spaces.group.Fusion.stmts));
          ("reason", Obs.S "untilable")
        ];
      standalone := !standalone @ [ s.Spaces.id ]
    end
    else begin
      (* shared intermediates are deliberately offered to every root
         (Algorithm 3 computes one extension schedule per use and then
         tests their intersection); only spaces already scheduled as
         roots are excluded *)
      let intermediates =
        Spaces.producer_closure spaces s
        |> List.filter (fun (c : Spaces.t) ->
               fusable c && not (List.mem c.Spaces.id !processed_roots))
      in
      let tiling =
        Tile_shapes.construct ?recompute_limit p ~liveout:s ~intermediates
          ~tile_sizes:(tile_sizes_for s) ~parallelism_cap
      in
      Hashtbl.replace tilings s.Spaces.id tiling;
      List.iter
        (fun (e : Tile_shapes.extension) ->
          let prev =
            Option.value ~default:[]
              (Hashtbl.find_opt fused_status e.Tile_shapes.space_id)
          in
          Hashtbl.replace fused_status e.Tile_shapes.space_id
            (prev @ [ s.Spaces.id ]))
        tiling.Tile_shapes.extensions
    end
  in
  List.iter run_root liveouts;
  (* Fixpoint: resolve shared spaces (ranges must be disjoint across the
     roots that fused them) and consumer coverage (every consumer of a
     fused space must itself be covered by the fusion), then promote
     still-unclaimed spaces to roots. *)
  let unfuse_everywhere id =
    Obs.count "post_tiling.unfuse";
    Hashtbl.iter
      (fun root_id t ->
        let t' = unfuse_from t id in
        if
          List.length t'.Tile_shapes.extensions
          <> List.length t.Tile_shapes.extensions
        then Hashtbl.replace tilings root_id t')
      (Hashtbl.copy tilings);
    (* rebuild fused_status from the tilings *)
    Hashtbl.reset fused_status;
    Hashtbl.iter
      (fun root_id (t : Tile_shapes.tiling) ->
        List.iter
          (fun (e : Tile_shapes.extension) ->
            let prev =
              Option.value ~default:[]
                (Hashtbl.find_opt fused_status e.Tile_shapes.space_id)
            in
            Hashtbl.replace fused_status e.Tile_shapes.space_id (prev @ [ root_id ]))
          t.Tile_shapes.extensions)
      tilings
  in
  let shared_ok id root_ids =
    match root_ids with
    | [] | [ _ ] -> true
    | _ ->
        let ranges =
          List.map
            (fun rid ->
              let t = Hashtbl.find tilings rid in
              let e =
                List.find
                  (fun (e : Tile_shapes.extension) -> e.Tile_shapes.space_id = id)
                  t.Tile_shapes.extensions
              in
              ext_range p e)
            root_ids
        in
        let rec disjoint = function
          | [] | [ _ ] -> true
          | r :: rest ->
              List.for_all (fun r' -> Iset.is_empty (Iset.intersect r r')) rest
              && disjoint rest
        in
        disjoint ranges
  in
  let fused_stmts_of id root_ids =
    List.concat_map
      (fun rid ->
        let t = Hashtbl.find tilings rid in
        List.concat_map
          (fun (e : Tile_shapes.extension) ->
            if e.Tile_shapes.space_id = id then Tile_shapes.fused_stmts e else [])
          t.Tile_shapes.extensions)
      root_ids
    |> List.sort_uniq compare
  in
  let coverage_ok id root_ids =
    let space = Spaces.find spaces id in
    let fused = fused_stmts_of id root_ids in
    let fused_arrays =
      List.map (fun st -> (Prog.find_stmt p st).Prog.write.Prog.array) fused
      |> List.sort_uniq compare
    in
    (* a residual statement must not read an array computed only inside
       the consumer tiles *)
    let residual =
      List.filter (fun st -> not (List.mem st fused)) space.Spaces.group.Fusion.stmts
    in
    let residual_ok =
      List.for_all
        (fun st ->
          List.for_all
            (fun (r : Prog.access) -> not (List.mem r.Prog.array fused_arrays))
            (Prog.find_stmt p st).Prog.reads)
        residual
    in
    (* Coverage is a statement-level property: a consumer space may be
       only partially fused, in which case its residual statements still
       execute in the original nest and read arrays globally. Checking
       "the consumer space has an extension in the root" is too weak —
       the extension may recompute a different statement of that space
       while the actual consumer statement stays residual (seed-1057
       mis-schedule: {s1;s2} space had s2 fused, so the fully-fused
       producer of s1's input was skipped even though s1 ran residually
       against never-computed data). *)
    let stmt_roots st =
      (* roots in whose tiles statement [st] executes: its own space
         when scheduled as a root, plus every root that fused it *)
      Hashtbl.fold
        (fun rid (t : Tile_shapes.tiling) acc ->
          let own =
            List.mem st (Spaces.find spaces rid).Spaces.group.Fusion.stmts
          in
          let in_ext =
            List.exists
              (fun (e : Tile_shapes.extension) ->
                List.mem st (Tile_shapes.fused_stmts e))
              t.Tile_shapes.extensions
          in
          if own || in_ext then rid :: acc else acc)
        tilings []
    in
    let consumer_stmts =
      List.concat_map
        (fun (c : Spaces.t) ->
          if c.Spaces.id = id then []
          else
            List.filter
              (fun st ->
                List.exists
                  (fun (r : Prog.access) -> List.mem r.Prog.array fused_arrays)
                  (Prog.find_stmt p st).Prog.reads)
              c.Spaces.group.Fusion.stmts)
        spaces
    in
    residual_ok
    && List.for_all
         (fun st ->
           match stmt_roots st with
           | [] -> false
           | roots -> List.for_all (fun r -> List.mem r root_ids) roots)
         consumer_stmts
  in
  let rec fixpoint () =
    let offender =
      Hashtbl.fold
        (fun id root_ids acc ->
          match acc with
          | Some _ -> acc
          | None ->
              if not (shared_ok id root_ids) then
                Some (id, "shared_overlap", root_ids)
              else if not (coverage_ok id root_ids) then
                Some (id, "consumer_coverage", root_ids)
              else None)
        fused_status None
    in
    match offender with
    | Some (id, predicate, root_ids) ->
        Obs.event ~cat:"post_tiling" "post_tiling.unfuse"
          [ ("space", Obs.I id);
            ("failed_predicate", Obs.S predicate);
            ("roots", Obs.S (String.concat "+" (List.map string_of_int root_ids)))
          ];
        unfuse_everywhere id;
        fixpoint ()
    | None ->
        (* promote unclaimed, unprocessed intermediates to roots *)
        let unclaimed =
          List.filter
            (fun (s : Spaces.t) ->
              (not s.Spaces.live_out)
              && (not (is_claimed s.Spaces.id))
              && not (List.mem s.Spaces.id !processed_roots))
            spaces
        in
        (* only promote spaces none of whose consumers is still unclaimed
           (work sinks-first so producers can fuse into promoted roots) *)
        let promotable =
          List.filter
            (fun (s : Spaces.t) ->
              List.for_all
                (fun (c : Spaces.t) ->
                  is_claimed c.Spaces.id || List.mem c.Spaces.id !processed_roots)
                (Spaces.consumers spaces s))
            unclaimed
        in
        match promotable with
        | [] ->
            (* no progress possible; schedule any remaining unclaimed
               spaces standalone *)
            List.iter
              (fun (s : Spaces.t) ->
                processed_roots := !processed_roots @ [ s.Spaces.id ];
                standalone := !standalone @ [ s.Spaces.id ])
              unclaimed
        | _ :: _ ->
            Obs.add "post_tiling.promotions" (List.length promotable);
            Obs.event ~cat:"post_tiling" "post_tiling.promote"
              [ ( "spaces",
                  Obs.S
                    (String.concat "+"
                       (List.map
                          (fun (s : Spaces.t) -> string_of_int s.Spaces.id)
                          promotable)) )
              ];
            List.iter run_root promotable;
            fixpoint ()
  in
  fixpoint ();
  let roots =
    List.filter_map
      (fun rid ->
        match Hashtbl.find_opt tilings rid with
        | Some t ->
            Some
              { tiling = t;
                fused_ids =
                  List.map
                    (fun (e : Tile_shapes.extension) -> e.Tile_shapes.space_id)
                    t.Tile_shapes.extensions
              }
        | None -> None)
      !processed_roots
  in
  let skipped, residual =
    Hashtbl.fold
      (fun id root_ids (sk, res) ->
        let fused = fused_stmts_of id root_ids in
        let space = Spaces.find spaces id in
        let rest =
          List.filter (fun st -> not (List.mem st fused)) space.Spaces.group.Fusion.stmts
        in
        if rest = [] then (id :: sk, res) else (sk, (id, rest) :: res))
      fused_status ([], [])
  in
  { roots;
    skipped = List.sort compare skipped;
    residual = List.sort compare residual;
    standalone = List.sort compare !standalone
  }

(* ------------------------------------------------------------------ *)
(* Algorithm 2: tree construction                                      *)
(* ------------------------------------------------------------------ *)

let tile_band_of (t : Tile_shapes.tiling) (liveout : Spaces.t) =
  let g = liveout.Spaces.group in
  let coincident = Array.sub g.Fusion.coincident 0 g.Fusion.band_dims in
  Schedule_tree.mk_band ~partial:t.Tile_shapes.tile_rel
    ~permutable:g.Fusion.permutable ~coincident

let root_subtree (p : Prog.t) ~spaces (r : root) =
  let liveout = Spaces.find spaces r.tiling.Tile_shapes.liveout_id in
  let g = liveout.Spaces.group in
  let point_band =
    Build_tree.group_band p g ~name:(Build_tree.band_name liveout.Spaces.id)
  in
  let point_subtree =
    let inner =
      match g.Fusion.stmts with
      | [ s ] -> Build_tree.inner_of_stmt p g s
      | stmts ->
          Schedule_tree.Sequence
            (List.map
               (fun s ->
                 Schedule_tree.Filter
                   (Build_tree.stmt_filter p [ s ], Build_tree.inner_of_stmt p g s))
               stmts)
    in
    Schedule_tree.Band (point_band, inner)
  in
  let body =
    match r.tiling.Tile_shapes.extensions with
    | [] -> point_subtree
    | exts ->
        let ext_union =
          Imap.union_all (List.map (fun (e : Tile_shapes.extension) -> e.Tile_shapes.ext_rel) exts)
        in
        let children =
          List.map
            (fun (e : Tile_shapes.extension) ->
              let space = Spaces.find spaces e.Tile_shapes.space_id in
              Build_tree.group_subtree ~only:(Tile_shapes.fused_stmts e) p
                space.Spaces.group
                ~name:(Build_tree.band_name space.Spaces.id))
            exts
          @ [ Schedule_tree.Filter
                (Build_tree.stmt_filter p g.Fusion.stmts, point_subtree)
            ]
        in
        Schedule_tree.Extension (ext_union, Schedule_tree.Sequence children)
  in
  (* "kernel:<space-id>" makes the generated [Ast.Kernel] id equal the
     scheduler-side space id, so decision-trace events and interp-side
     attribution name the same entity. *)
  Schedule_tree.Filter
    ( Build_tree.stmt_filter p g.Fusion.stmts,
      Schedule_tree.Mark
        ( Printf.sprintf "kernel:%d" liveout.Spaces.id,
          Schedule_tree.Band
            (tile_band_of r.tiling liveout, Schedule_tree.Mark ("point", body))
        ) )

let to_tree (p : Prog.t) ~spaces (pl : plan) =
  Obs.span "post_tiling.to_tree" @@ fun () ->
  let domain =
    Build_tree.stmt_filter p (List.map (fun s -> s.Prog.stmt_name) p.Prog.stmts)
  in
  let subtree_for (s : Spaces.t) =
    if List.mem s.Spaces.id pl.skipped then
      Schedule_tree.Mark
        ( "skipped",
          Build_tree.group_subtree p s.Spaces.group
            ~name:(Build_tree.band_name s.Spaces.id) )
    else
      match List.assoc_opt s.Spaces.id pl.residual with
      | Some rest ->
          Schedule_tree.Mark
            ( Printf.sprintf "kernel:%d" s.Spaces.id,
              Build_tree.group_subtree ~only:rest p s.Spaces.group
                ~name:(Build_tree.band_name s.Spaces.id) )
      | None -> (
      match List.find_opt (fun r -> r.tiling.Tile_shapes.liveout_id = s.Spaces.id) pl.roots with
      | Some r -> root_subtree p ~spaces r
      | None ->
          Schedule_tree.Mark
            ( Printf.sprintf "kernel:%d" s.Spaces.id,
              Build_tree.group_subtree p s.Spaces.group
                ~name:(Build_tree.band_name s.Spaces.id) ))
  in
  let children = List.map subtree_for spaces in
  match children with
  | [ single ] -> Schedule_tree.Domain (domain, single)
  | _ -> Schedule_tree.Domain (domain, Schedule_tree.Sequence children)
