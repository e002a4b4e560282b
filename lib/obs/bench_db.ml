(* BENCH_<label>.json databases: a labelled list of snapshots plus an
   exact metric-by-metric diff, powering the [bench/main.exe regress]
   CI gate.

   Classification rules:
   - Every metric is an integer count and compares exactly: the
     compiler is deterministic, so any drift is a real behaviour
     change. An increase classifies as regressed, a decrease as
     improved; intentional changes are absorbed by refreshing the
     committed baseline.
   - A workload x flow present in the base but missing from the
     candidate (e.g. a flow that now crashes) regresses; a pair only in
     the candidate is reported as added but does not gate.
   - The same direction rule holds metric by metric: a metric present
     in the base but absent from the candidate is reported as removed
     AND fails the gate (silently lost coverage), while a metric only
     in the candidate is added and never gates. *)

type t = { label : string; created : string; snapshots : Snapshot.t list }

(* Bumped whenever a snapshot field changes. [load] accepts no other
   version, so an old baseline is refused rather than half-compared. *)
let schema_version = 4

let iso8601 time =
  let tm = Unix.gmtime time in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let make ~label snapshots =
  { label; created = iso8601 (Unix.time ()); snapshots }

(* ------------------------------------------------------------------ *)
(* Load / save                                                         *)
(* ------------------------------------------------------------------ *)

let to_json db =
  Snapshot.Json.Obj
    [ ("schema_version", Snapshot.Json.Num (float_of_int schema_version));
      ("label", Snapshot.Json.Str db.label);
      ("created", Snapshot.Json.Str db.created);
      ( "snapshots",
        Snapshot.Json.Arr (List.map Snapshot.to_json db.snapshots) )
    ]

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let of_json j =
  let field name =
    match Snapshot.Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let* version_j = field "schema_version" in
  let* version =
    match version_j with
    | Snapshot.Json.Num f -> Ok (int_of_float f)
    | _ -> Error "field \"schema_version\" is not a number"
  in
  if version <> schema_version then
    Error
      (Printf.sprintf "unsupported schema_version %d (expected %d)" version
         schema_version)
  else
    let* label_j = field "label" in
    let* label =
      match label_j with
      | Snapshot.Json.Str s -> Ok s
      | _ -> Error "field \"label\" is not a string"
    in
    let created =
      match Snapshot.Json.member "created" j with
      | Some (Snapshot.Json.Str s) -> s
      | _ -> ""
    in
    let* snaps_j = field "snapshots" in
    let* snapshots =
      match snaps_j with
      | Snapshot.Json.Arr l ->
          List.fold_left
            (fun acc s ->
              let* acc = acc in
              let* snap = Snapshot.of_json s in
              Ok (snap :: acc))
            (Ok []) l
          |> Result.map List.rev
      | _ -> Error "field \"snapshots\" is not an array"
    in
    Ok { label; created; snapshots }

let save path db = Json_util.write_json path (to_json db)

let load path =
  let* text = Json_util.read_file path in
  match Snapshot.Json.parse text with
  | Error msg -> Error (Printf.sprintf "%s: invalid JSON: %s" path msg)
  | Ok j -> (
      match of_json j with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok db -> Ok db)

(* ------------------------------------------------------------------ *)
(* Diff and classification                                             *)
(* ------------------------------------------------------------------ *)

type classification = Improved | Unchanged | Regressed | Added | Removed

type delta = {
  d_workload : string;
  d_flow : string;
  d_metric : string;
  d_base : int;
  d_cand : int;
  d_class : classification;
}

let classify_counter ~base ~cand =
  if cand > base then Regressed else if cand < base then Improved else Unchanged

(* Flatten a snapshot into named integer metrics. *)
let metrics_of (s : Snapshot.t) : (string * int) list =
  List.map (fun (name, n) -> ("span." ^ name ^ ".calls", n)) s.Snapshot.span_calls
  @ List.map (fun (name, v) -> ("counter." ^ name, v)) s.Snapshot.counters
  @ List.concat_map
      (fun (l : Snapshot.cache_level) ->
        [ ("cache." ^ l.Snapshot.cl_name ^ ".hits", l.Snapshot.cl_hits);
          ("cache." ^ l.Snapshot.cl_name ^ ".misses", l.Snapshot.cl_misses)
        ])
      s.Snapshot.cache_levels
  @ [ ("cache.dram", s.Snapshot.dram_accesses);
      ("traffic.read_bytes", s.Snapshot.traffic.Snapshot.tr_read_bytes);
      ("traffic.write_bytes", s.Snapshot.traffic.Snapshot.tr_write_bytes);
      ("traffic.staged_bytes", s.Snapshot.traffic.Snapshot.tr_staged_bytes);
      ("ast.loops", s.Snapshot.ast.Snapshot.ast_loops);
      ("ast.kernels", s.Snapshot.ast.Snapshot.ast_kernels);
      ("ast.nodes", s.Snapshot.ast.Snapshot.ast_nodes)
    ]

let diff_snapshots (base : Snapshot.t) (cand : Snapshot.t) =
  let mk metric b c cls =
    { d_workload = base.Snapshot.workload;
      d_flow = base.Snapshot.flow;
      d_metric = metric;
      d_base = b;
      d_cand = c;
      d_class = cls
    }
  in
  let cm = metrics_of cand in
  let cand_tbl = Hashtbl.create 64 in
  List.iter (fun (name, v) -> Hashtbl.replace cand_tbl name v) cm;
  let matched =
    List.map
      (fun (name, b) ->
        match Hashtbl.find_opt cand_tbl name with
        | None -> mk name b 0 Removed
        | Some c ->
            Hashtbl.remove cand_tbl name;
            mk name b c (classify_counter ~base:b ~cand:c))
      (metrics_of base)
  in
  let added =
    List.filter_map
      (fun (name, c) ->
        if Hashtbl.mem cand_tbl name then Some (mk name 0 c Added) else None)
      cm
  in
  matched @ added

let diff ~base ~cand =
  let key (s : Snapshot.t) = (s.Snapshot.workload, s.Snapshot.flow) in
  let presence (s : Snapshot.t) b c cls =
    { d_workload = s.Snapshot.workload;
      d_flow = s.Snapshot.flow;
      d_metric = "snapshot.present";
      d_base = b;
      d_cand = c;
      d_class = cls
    }
  in
  let cand_tbl = Hashtbl.create 32 in
  List.iter (fun s -> Hashtbl.replace cand_tbl (key s) s) cand.snapshots;
  let matched =
    List.concat_map
      (fun (b : Snapshot.t) ->
        match Hashtbl.find_opt cand_tbl (key b) with
        | Some c ->
            Hashtbl.remove cand_tbl (key b);
            diff_snapshots b c
        | None ->
            (* the whole pair vanished from the candidate: gate *)
            [ presence b 1 0 Regressed ])
      base.snapshots
  in
  let added =
    List.filter_map
      (fun (c : Snapshot.t) ->
        if Hashtbl.mem cand_tbl (key c) then Some (presence c 0 1 Added)
        else None)
      cand.snapshots
  in
  matched @ added

(* A delta gates when it is a plain regression, or when a metric
   silently vanished from the candidate: a metric present in the base
   but absent in the candidate means lost coverage (an instrumented
   path no longer runs, a span renamed), and letting it "pass" would
   hide exactly the drift the gate exists to catch. Direction matters:
   [Removed] gates, [Added] never does. *)
let gates d =
  match d.d_class with
  | Regressed | Removed -> true
  | Improved | Unchanged | Added -> false

let regressions deltas = List.filter gates deltas

let gate deltas = if regressions deltas = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let class_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "REGRESSED"
  | Added -> "added"
  | Removed -> "removed"

let summary_table deltas =
  let b = Buffer.create 2048 in
  let interesting = List.filter (fun d -> d.d_class <> Unchanged) deltas in
  let count cls = List.length (List.filter (fun d -> d.d_class = cls) deltas) in
  if interesting = [] then
    Buffer.add_string b "all metrics unchanged\n"
  else begin
    let rows =
      List.map
        (fun d ->
          [ d.d_workload;
            d.d_flow;
            d.d_metric;
            string_of_int d.d_base;
            string_of_int d.d_cand;
            class_name d.d_class
          ])
        interesting
    in
    let header = [ "workload"; "flow"; "metric"; "base"; "cand"; "class" ] in
    let all = header :: rows in
    let widths =
      List.fold_left
        (fun acc row ->
          List.mapi
            (fun i cell -> max (List.nth acc i) (String.length cell))
            row)
        (List.map (fun _ -> 0) header)
        all
    in
    let emit row =
      List.iteri
        (fun i cell ->
          Buffer.add_string b (Printf.sprintf "  %-*s" (List.nth widths i) cell))
        row;
      Buffer.add_char b '\n'
    in
    emit header;
    emit (List.map (fun w -> String.make w '-') widths);
    List.iter emit rows
  end;
  Buffer.add_string b
    (Printf.sprintf
       "%d metrics compared: %d improved, %d unchanged, %d regressed, %d \
        added, %d removed\n"
       (List.length deltas) (count Improved) (count Unchanged) (count Regressed)
       (count Added) (count Removed));
  Buffer.contents b

let deltas_json deltas =
  let open Snapshot.Json in
  let count cls = List.length (List.filter (fun d -> d.d_class = cls) deltas) in
  let delta_obj d =
    Obj
      [ ("workload", Str d.d_workload);
        ("flow", Str d.d_flow);
        ("metric", Str d.d_metric);
        ("base", Num (float_of_int d.d_base));
        ("cand", Num (float_of_int d.d_cand));
        ("class", Str (String.lowercase_ascii (class_name d.d_class)))
      ]
  in
  to_string
    (Obj
       [ ("schema_version", Num (float_of_int schema_version));
         ( "summary",
           Obj
             [ ("compared", Num (float_of_int (List.length deltas)));
               ("improved", Num (float_of_int (count Improved)));
               ("unchanged", Num (float_of_int (count Unchanged)));
               ("regressed", Num (float_of_int (count Regressed)));
               ("added", Num (float_of_int (count Added)));
               ("removed", Num (float_of_int (count Removed)))
             ] );
         ( "deltas",
           Arr
             (List.filter_map
                (fun d ->
                  if d.d_class = Unchanged then None else Some (delta_obj d))
                deltas) )
       ])
