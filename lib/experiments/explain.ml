(* memcomp explain: see explain.mli. *)

type t = {
  ex_workload : string;
  ex_flow : string;
  ex_tile : int;
  ex_jobs : int;
  ex_compile_s : float;
  ex_events : Obs.event list;
  ex_attribution : (string * Footprints.traffic) list option;
  ex_traffic : Footprints.traffic option;
  ex_prof : Memprof.t;
  ex_metrics : Executor.metrics;
  ex_wall_s : float;
}

let collect ?(tile = 32) ?(jobs = 1) ~workload ~make prog =
  Obs.reset ();
  Obs.enable ();
  let v = make prog in
  (* measured attribution: profile the compiled AST through the
     sequential interpreter *)
  let mem = Interp.alloc prog in
  Cpu_model.deterministic_fill ~seed:42 prog mem;
  let prof = Memprof.create () in
  let (_ : Interp.stats) =
    Interp.run ~hook:(Memprof.hook prof) prog v.Exp_util.ast mem
  in
  Cache.publish (Memprof.cache prof);
  (* polyhedral attribution (undefined for the naive flow) *)
  let attribution, traffic =
    match v.Exp_util.flavor with
    | Exp_util.Naive -> (None, None)
    | Exp_util.Baseline _ | Exp_util.Ours _ ->
        let cs = Exp_util.clusters prog v in
        ( Some (Footprints.program_traffic_by_array prog cs),
          Some (Footprints.program_traffic prog cs) )
  in
  (* runtime timelines (also emits runtime.tile events) *)
  let deps = Exp_util.deps_of prog v in
  let r = Runtime.run ~jobs prog ~deps v.Exp_util.ast in
  { ex_workload = workload;
    ex_flow = v.Exp_util.ver_name;
    ex_tile = tile;
    ex_jobs = jobs;
    ex_compile_s = v.Exp_util.compile_s;
    ex_events = Obs.events ();
    ex_attribution = attribution;
    ex_traffic = traffic;
    ex_prof = prof;
    ex_metrics = r.Runtime.metrics;
    ex_wall_s = r.Runtime.wall_s
  }

(* --- markdown -------------------------------------------------------- *)

let md_table buf ~header rows =
  let line cells =
    Buffer.add_string buf "| ";
    Buffer.add_string buf (String.concat " | " cells);
    Buffer.add_string buf " |\n"
  in
  line header;
  line (List.map (fun _ -> "---") header);
  List.iter line rows;
  Buffer.add_char buf '\n'

let arg_str e key =
  match Obs.arg e key with Some v -> Json_util.value_to_string v | None -> ""

let rest_args e skip =
  e.Obs.args
  |> List.filter (fun (k, _) -> not (List.mem k skip))
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Json_util.value_to_string v))
  |> String.concat ", "

let cat_events t cat = List.filter (fun e -> e.Obs.cat = cat) t.ex_events

let bucket_label b =
  let lo, hi = Memprof.bucket_bounds b in
  if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi

let to_markdown t =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "# explain: %s (flow %s, tile %d)\n\n" t.ex_workload t.ex_flow t.ex_tile;
  pf "compiled in %.3f s; %d structured events recorded (%d dropped)\n\n"
    t.ex_compile_s (Obs.events_emitted ()) (Obs.events_dropped ());

  pf "## Fusion decisions\n\n";
  (match cat_events t "fusion" with
  | [] -> pf "(none recorded)\n\n"
  | es ->
      md_table buf ~header:[ "verdict"; "prev"; "next"; "reason"; "detail" ]
        (List.map
           (fun e ->
             [ (if e.Obs.name = "fusion.accept" then "accept" else "reject");
               arg_str e "prev"; arg_str e "next"; arg_str e "reason";
               rest_args e [ "heuristic"; "prev"; "next"; "reason" ]
             ])
           es));

  pf "## Tile-shape choice\n\n";
  let tiling = cat_events t "tiling" in
  (match List.filter (fun e -> e.Obs.name = "tile_shape.candidate") tiling with
  | [] -> pf "(no candidates recorded)\n\n"
  | cands ->
      md_table buf
        ~header:
          [ "space"; "candidate"; "sizes"; "points/tile"; "est bytes/tile";
            "chosen" ]
        (List.map
           (fun e ->
             [ arg_str e "space"; arg_str e "which"; arg_str e "sizes";
               arg_str e "points_per_tile"; arg_str e "est_bytes_per_tile";
               (if arg_str e "chosen" = "true" then "yes" else "") ])
           cands));
  (match
     List.filter (fun e -> e.Obs.name <> "tile_shape.candidate") tiling
   with
  | [] -> ()
  | es ->
      pf "extension-schedule decisions:\n\n";
      List.iter
        (fun e -> pf "- %s: %s\n" e.Obs.name (rest_args e []))
        es;
      pf "\n");

  pf "## Post-tiling rewrites\n\n";
  (match cat_events t "post_tiling" with
  | [] -> pf "(none)\n\n"
  | es ->
      List.iter (fun e -> pf "- %s: %s\n" e.Obs.name (rest_args e [])) es;
      pf "\n");

  pf "## Per-array traffic attribution\n\n";
  (match t.ex_attribution with
  | None -> pf "(polyhedral attribution unavailable for this flow)\n\n"
  | Some rows ->
      let total =
        match t.ex_traffic with
        | Some tr -> tr
        | None -> { Footprints.read_bytes = 0; write_bytes = 0 }
      in
      md_table buf ~header:[ "array"; "read bytes"; "write bytes" ]
        (List.map
           (fun (a, (tr : Footprints.traffic)) ->
             [ a; string_of_int tr.Footprints.read_bytes;
               string_of_int tr.Footprints.write_bytes ])
           rows
        @ [ [ "**total**"; string_of_int total.Footprints.read_bytes;
              string_of_int total.Footprints.write_bytes ] ]));

  pf "## Measured memory profile (interpreted trace)\n\n";
  md_table buf ~header:[ "array"; "accesses"; "reads"; "writes"; "DRAM" ]
    (List.map
       (fun (a, (r : Memprof.row)) ->
         [ a; string_of_int r.Memprof.accesses; string_of_int r.Memprof.reads;
           string_of_int r.Memprof.writes; string_of_int r.Memprof.dram ])
       (Memprof.per_array t.ex_prof));
  md_table buf ~header:[ "statement"; "accesses"; "reads"; "writes"; "DRAM" ]
    (List.map
       (fun (s, (r : Memprof.row)) ->
         [ s; string_of_int r.Memprof.accesses; string_of_int r.Memprof.reads;
           string_of_int r.Memprof.writes; string_of_int r.Memprof.dram ])
       (Memprof.per_stmt t.ex_prof));
  List.iter
    (fun (l : Cache.level_stats) ->
      pf "- %s: %d hits, %d misses\n" l.Cache.level l.Cache.hits l.Cache.misses)
    (Cache.stats (Memprof.cache t.ex_prof));
  pf "- DRAM accesses: %d\n\n" (Cache.dram_accesses (Memprof.cache t.ex_prof));

  pf "## Reuse-distance histogram (64 B lines)\n\n";
  md_table buf ~header:[ "distance"; "count" ]
    (List.map
       (fun (b, c) -> [ bucket_label b; string_of_int c ])
       (Memprof.reuse_histogram t.ex_prof));
  pf "cold (first-touch) accesses: %d over %d distinct lines, %d accesses total\n\n"
    (Memprof.cold_misses t.ex_prof)
    (Memprof.distinct_lines t.ex_prof)
    (Memprof.total_accesses t.ex_prof);

  pf "## Runtime\n\n";
  let m = t.ex_metrics in
  pf "%d jobs, %d tiles, %d steals, %.3f ms wall\n\n" m.Executor.m_jobs
    m.Executor.m_tiles m.Executor.m_steals (1e3 *. t.ex_wall_s);
  md_table buf ~header:[ "worker"; "busy ms"; "tiles" ]
    (Array.to_list
       (Array.mapi
          (fun w b ->
            let tiles =
              List.length
                (List.filter
                   (fun e -> e.Executor.tl_worker = w)
                   m.Executor.m_timeline)
            in
            [ string_of_int w; Printf.sprintf "%.3f" (1e3 *. b);
              string_of_int tiles ])
          m.Executor.m_busy_s));
  Buffer.contents buf

(* --- JSON ------------------------------------------------------------ *)

let json_of_value = function
  | Obs.S s -> Snapshot.Json.Str s
  | Obs.I i -> Snapshot.Json.Num (float_of_int i)
  | Obs.F f -> Snapshot.Json.Num f
  | Obs.B b -> Snapshot.Json.Bool b

let json_of_event (e : Obs.event) =
  Snapshot.Json.Obj
    [ ("seq", Snapshot.Json.Num (float_of_int e.Obs.seq));
      ("ts", Snapshot.Json.Num e.Obs.ts_s);
      ("dur", Snapshot.Json.Num e.Obs.dur_s);
      ("cat", Snapshot.Json.Str e.Obs.cat);
      ("name", Snapshot.Json.Str e.Obs.name);
      ("args", Snapshot.Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) e.Obs.args))
    ]

let json_of_row (name, (r : Memprof.row)) =
  Snapshot.Json.Obj
    [ ("name", Snapshot.Json.Str name);
      ("accesses", Snapshot.Json.Num (float_of_int r.Memprof.accesses));
      ("reads", Snapshot.Json.Num (float_of_int r.Memprof.reads));
      ("writes", Snapshot.Json.Num (float_of_int r.Memprof.writes));
      ("dram", Snapshot.Json.Num (float_of_int r.Memprof.dram))
    ]

let json_of_hist h =
  Snapshot.Json.Arr
    (List.map
       (fun (b, c) ->
         let lo, hi = Memprof.bucket_bounds b in
         Snapshot.Json.Obj
           [ ("bucket", Snapshot.Json.Num (float_of_int b));
             ("lo", Snapshot.Json.Num (float_of_int lo));
             ("hi", Snapshot.Json.Num (float_of_int hi));
             ("count", Snapshot.Json.Num (float_of_int c))
           ])
       h)

let to_json t =
  let open Snapshot.Json in
  let num i = Num (float_of_int i) in
  let attribution =
    match t.ex_attribution with
    | None -> Null
    | Some rows ->
        Arr
          (List.map
             (fun (a, (tr : Footprints.traffic)) ->
               Obj
                 [ ("array", Str a);
                   ("read_bytes", num tr.Footprints.read_bytes);
                   ("write_bytes", num tr.Footprints.write_bytes)
                 ])
             rows)
  in
  let m = t.ex_metrics in
  Obj
    [ ("workload", Str t.ex_workload);
      ("flow", Str t.ex_flow);
      ("tile", num t.ex_tile);
      ("jobs", num t.ex_jobs);
      ("compile_s", Num t.ex_compile_s);
      ("events", Arr (List.map json_of_event t.ex_events));
      ("attribution", attribution);
      ("profile",
        Obj
          [ ("arrays", Arr (List.map json_of_row (Memprof.per_array t.ex_prof)));
            ("stmts", Arr (List.map json_of_row (Memprof.per_stmt t.ex_prof)));
            ("reuse_histogram", json_of_hist (Memprof.reuse_histogram t.ex_prof));
            ("cold_misses", num (Memprof.cold_misses t.ex_prof));
            ("distinct_lines", num (Memprof.distinct_lines t.ex_prof));
            ("total_accesses", num (Memprof.total_accesses t.ex_prof));
            ("dram_accesses", num (Cache.dram_accesses (Memprof.cache t.ex_prof)));
            ("cache_levels",
              Arr
                (List.map
                   (fun (l : Cache.level_stats) ->
                     Obj
                       [ ("level", Str l.Cache.level);
                         ("hits", num l.Cache.hits);
                         ("misses", num l.Cache.misses)
                       ])
                   (Cache.stats (Memprof.cache t.ex_prof))))
          ]);
      ("runtime",
        Obj
          [ ("jobs", num m.Executor.m_jobs);
            ("tiles", num m.Executor.m_tiles);
            ("steals", num m.Executor.m_steals);
            ("wall_s", Num t.ex_wall_s);
            ("busy_s",
              Arr (Array.to_list (Array.map (fun b -> Num b) m.Executor.m_busy_s)));
            ("timeline",
              Arr
                (List.map
                   (fun e ->
                     Obj
                       [ ("tile", num e.Executor.tl_tile);
                         ("worker", num e.Executor.tl_worker);
                         ("start_s", Num e.Executor.tl_start_s);
                         ("dur_s", Num e.Executor.tl_dur_s)
                       ])
                   m.Executor.m_timeline))
          ])
    ]

let to_json_string t = Snapshot.Json.to_string (to_json t)
