(* BENCH_<label>.json databases: a labelled list of flat snapshots plus
   an exact metric-by-metric diff, powering the [bench/main.exe regress]
   CI gate.

   A snapshot is pure data: the machine-model and AST counts are
   computed by the collector (bench/main.ml) and passed in, so this
   module stays at the bottom of the dependency graph next to Obs. Only
   [capture] reads live Obs state. The counters it adds include the Fm
   memo-cache mirror counters (fm.cache.<name>.hit/.miss/.evict and
   their aggregates), so cache effectiveness is gated alongside the
   pass counters; the collector resets the caches per workload x flow
   to keep them deterministic.

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

module Json = Json_util.Json

type snapshot = { workload : string; flow : string; metrics : (string * int) list }

type t = { label : string; created : string; snapshots : snapshot list }

(* Bumped whenever the snapshot format changes. [load] accepts no other
   version, so an old baseline is refused rather than half-compared. *)
let schema_version = 5

let capture ~workload ~flow metrics =
  let spans =
    List.map
      (fun (name, (calls, _total_s, _max_s)) -> ("span." ^ name ^ ".calls", calls))
      (Obs.spans_alist ())
  in
  let counters =
    List.map (fun (name, v) -> ("counter." ^ name, v)) (Obs.counters_alist ())
  in
  { workload; flow; metrics = List.sort compare (spans @ counters @ metrics) }

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

let num i = Json.Num (float_of_int i)

let snapshot_to_json s =
  Json.Obj
    [ ("workload", Json.Str s.workload);
      ("flow", Json.Str s.flow);
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, num v)) s.metrics))
    ]

let to_json db =
  Json.Obj
    [ ("schema_version", num schema_version);
      ("label", Json.Str db.label);
      ("created", Json.Str db.created);
      ("snapshots", Json.Arr (List.map snapshot_to_json db.snapshots))
    ]

(* Decoding, spelled with a tiny error monad so every failure names the
   missing or ill-typed field. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let str_field name j =
  let* v = field name j in
  match v with
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "field %S is not a string" name)

let int_of name = function
  | Json.Num f -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "field %S is not a number" name)

(* Decode each element with [f], keeping order. *)
let map_result f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

let snapshot_of_json j =
  let* workload = str_field "workload" j in
  let* flow = str_field "flow" j in
  let* metrics_j = field "metrics" j in
  let* metrics =
    match metrics_j with
    | Json.Obj kvs ->
        map_result
          (fun (k, v) ->
            let* n = int_of k v in
            Ok (k, n))
          kvs
    | _ -> Error "field \"metrics\" is not an object"
  in
  Ok { workload; flow; metrics }

let of_json j =
  let* version_j = field "schema_version" j in
  let* version = int_of "schema_version" version_j in
  if version <> schema_version then
    Error
      (Printf.sprintf "unsupported schema_version %d (expected %d)" version
         schema_version)
  else
    let* label = str_field "label" j in
    let created =
      match Json.member "created" j with Some (Json.Str s) -> s | _ -> ""
    in
    let* snaps_j = field "snapshots" j in
    let* snapshots =
      match snaps_j with
      | Json.Arr l -> map_result snapshot_of_json l
      | _ -> Error "field \"snapshots\" is not an array"
    in
    Ok { label; created; snapshots }

let save path db = Json_util.write_json path (to_json db)

let load path =
  let* text = Json_util.read_file path in
  match Json.parse text with
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

let diff_snapshots base cand =
  let mk metric b c cls =
    { d_workload = base.workload;
      d_flow = base.flow;
      d_metric = metric;
      d_base = b;
      d_cand = c;
      d_class = cls
    }
  in
  let cand_tbl = Hashtbl.create 64 in
  List.iter (fun (name, v) -> Hashtbl.replace cand_tbl name v) cand.metrics;
  let matched =
    List.map
      (fun (name, b) ->
        match Hashtbl.find_opt cand_tbl name with
        | None -> mk name b 0 Removed
        | Some c ->
            Hashtbl.remove cand_tbl name;
            mk name b c (classify_counter ~base:b ~cand:c))
      base.metrics
  in
  let added =
    List.filter_map
      (fun (name, c) ->
        if Hashtbl.mem cand_tbl name then Some (mk name 0 c Added) else None)
      cand.metrics
  in
  matched @ added

let diff ~base ~cand =
  let key s = (s.workload, s.flow) in
  let presence s b c cls =
    { d_workload = s.workload;
      d_flow = s.flow;
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
      (fun b ->
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
      (fun c ->
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
  let open Json in
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
