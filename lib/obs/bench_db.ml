(* BENCH_<label>.json databases: a labelled list of snapshots plus a
   metric-by-metric diff with per-kind thresholds, powering the
   [bench/main.exe regress] CI gate.

   Classification rules:
   - Time metrics (compile wall time, span totals) are ratio-gated with
     a noise floor: both sides are clamped up to [time_floor_s] before
     comparing, so sub-floor jitter can never trip the gate, and a
     metric regresses only when it exceeds [max_time_ratio] times the
     (clamped) base.
   - Counter metrics (pass counters, cache hits/misses, traffic bytes,
     AST sizes) are exact: the compiler is deterministic, so any drift
     is a real behaviour change. An increase classifies as regressed, a
     decrease as improved; intentional changes are absorbed by
     refreshing the committed baseline.
   - A workload x flow present in the base but missing from the
     candidate (e.g. a flow that now crashes) regresses; a pair only in
     the candidate is reported as added but does not gate.
   - The same direction rule holds metric by metric: a time or counter
     metric present in the base but absent from the candidate is
     reported as removed AND fails the gate (silently lost coverage),
     while a metric only in the candidate is added and never gates.
     Noisy metrics (the optional speedup field) may come and go. *)

type t = { label : string; created : string; snapshots : Snapshot.t list }

(* v2: snapshots may carry the optional speedup field and runtime.*
   counters; v1 files still load (the additions are optional). *)
let schema_version = 2

let min_schema_version = 1

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
  if version < min_schema_version || version > schema_version then
    Error
      (Printf.sprintf "unsupported schema_version %d (supported: %d-%d)" version
         min_schema_version schema_version)
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

let save path db =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Snapshot.Json.to_string (to_json db));
      output_char oc '\n')

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> (
      match Snapshot.Json.parse text with
      | Error msg -> Error (Printf.sprintf "%s: invalid JSON: %s" path msg)
      | Ok j -> (
          match of_json j with
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
          | Ok db -> Ok db))

(* ------------------------------------------------------------------ *)
(* Diff and classification                                             *)
(* ------------------------------------------------------------------ *)

type kind = Time | Counter | Noisy

type classification = Improved | Unchanged | Regressed | Added | Removed

type delta = {
  d_workload : string;
  d_flow : string;
  d_metric : string;
  d_kind : kind;
  d_base : float;
  d_cand : float;
  d_class : classification;
}

type thresholds = { max_time_ratio : float; time_floor_s : float }

let default_thresholds = { max_time_ratio = 2.0; time_floor_s = 0.1 }

let classify_time th ~base ~cand =
  let b = Float.max base th.time_floor_s in
  let c = Float.max cand th.time_floor_s in
  if c > b *. th.max_time_ratio then Regressed
  else if b > c *. th.max_time_ratio then Improved
  else Unchanged

let classify_counter ~base ~cand =
  if cand > base then Regressed else if cand < base then Improved else Unchanged

(* Metrics that are inherently nondeterministic across runs -- work-
   stealing counts, per-worker busy time, measured wall-clock speedup.
   They are recorded for inspection but never gate. The runtime no
   longer records barrier waits; the name stays because older
   snapshots (the committed baseline among them) still carry it, and
   [regress] looks a metric's kind up by name. *)
let noisy_counters =
  [ "runtime.steals"; "runtime.barrier_waits"; "runtime.busy_us" ]

let counter_kind name = if List.mem name noisy_counters then Noisy else Counter

(* Flatten a snapshot into named scalar metrics. Span wall times are
   Time metrics; span call counts, like everything else, are exact. *)
let metrics_of (s : Snapshot.t) : (string * kind * float) list =
  let i v = float_of_int v in
  [ ("compile_s", Time, s.Snapshot.compile_s) ]
  @ List.concat_map
      (fun (sp : Snapshot.span) ->
        [ ("span." ^ sp.Snapshot.sp_name ^ ".total_s", Time, sp.Snapshot.sp_total_s);
          ("span." ^ sp.Snapshot.sp_name ^ ".calls", Counter, i sp.Snapshot.sp_calls)
        ])
      s.Snapshot.spans
  @ List.map
      (fun (name, v) -> ("counter." ^ name, counter_kind name, i v))
      s.Snapshot.counters
  @ List.concat_map
      (fun (l : Snapshot.cache_level) ->
        [ ("cache." ^ l.Snapshot.cl_name ^ ".hits", Counter, i l.Snapshot.cl_hits);
          ("cache." ^ l.Snapshot.cl_name ^ ".misses", Counter, i l.Snapshot.cl_misses)
        ])
      s.Snapshot.cache_levels
  @ [ ("cache.dram", Counter, i s.Snapshot.dram_accesses);
      ("traffic.read_bytes", Counter, i s.Snapshot.traffic.Snapshot.tr_read_bytes);
      ("traffic.write_bytes", Counter, i s.Snapshot.traffic.Snapshot.tr_write_bytes);
      ("traffic.staged_bytes", Counter, i s.Snapshot.traffic.Snapshot.tr_staged_bytes);
      ("ast.loops", Counter, i s.Snapshot.ast.Snapshot.ast_loops);
      ("ast.kernels", Counter, i s.Snapshot.ast.Snapshot.ast_kernels);
      ("ast.nodes", Counter, i s.Snapshot.ast.Snapshot.ast_nodes)
    ]
  @ (match s.Snapshot.speedup with
    | Some f -> [ ("speedup", Noisy, f) ]
    | None -> [])

let diff_snapshots th (base : Snapshot.t) (cand : Snapshot.t) =
  let mk metric kind b c cls =
    { d_workload = base.Snapshot.workload;
      d_flow = base.Snapshot.flow;
      d_metric = metric;
      d_kind = kind;
      d_base = b;
      d_cand = c;
      d_class = cls
    }
  in
  let bm = metrics_of base and cm = metrics_of cand in
  let cand_tbl = Hashtbl.create 64 in
  List.iter (fun (name, kind, v) -> Hashtbl.replace cand_tbl name (kind, v)) cm;
  let matched =
    List.map
      (fun (name, kind, b) ->
        match Hashtbl.find_opt cand_tbl name with
        | None -> mk name kind b 0.0 Removed
        | Some (_, c) ->
            Hashtbl.remove cand_tbl name;
            let cls =
              match kind with
              | Time -> classify_time th ~base:b ~cand:c
              | Counter ->
                  classify_counter ~base:(int_of_float b) ~cand:(int_of_float c)
              | Noisy -> Unchanged
            in
            mk name kind b c cls)
      bm
  in
  let added =
    List.filter_map
      (fun (name, kind, c) ->
        if Hashtbl.mem cand_tbl name then Some (mk name kind 0.0 c Added)
        else None)
      cm
  in
  matched @ added

let diff ?(thresholds = default_thresholds) ~base ~cand () =
  let key (s : Snapshot.t) = (s.Snapshot.workload, s.Snapshot.flow) in
  let cand_tbl = Hashtbl.create 32 in
  List.iter (fun s -> Hashtbl.replace cand_tbl (key s) s) cand.snapshots;
  let matched =
    List.concat_map
      (fun (b : Snapshot.t) ->
        match Hashtbl.find_opt cand_tbl (key b) with
        | Some c ->
            Hashtbl.remove cand_tbl (key b);
            diff_snapshots thresholds b c
        | None ->
            (* the whole pair vanished from the candidate: gate *)
            [ { d_workload = b.Snapshot.workload;
                d_flow = b.Snapshot.flow;
                d_metric = "snapshot.present";
                d_kind = Counter;
                d_base = 1.0;
                d_cand = 0.0;
                d_class = Regressed
              } ])
      base.snapshots
  in
  let added =
    List.filter_map
      (fun (c : Snapshot.t) ->
        if Hashtbl.mem cand_tbl (key c) then
          Some
            { d_workload = c.Snapshot.workload;
              d_flow = c.Snapshot.flow;
              d_metric = "snapshot.present";
              d_kind = Counter;
              d_base = 0.0;
              d_cand = 1.0;
              d_class = Added
            }
        else None)
      cand.snapshots
  in
  matched @ added

(* A delta gates when it is a plain regression, or when a gating-kind
   metric silently vanished from the candidate: a counter or time
   metric present in the base but absent in the candidate means lost
   coverage (an instrumented path no longer runs, a span renamed), and
   letting it "pass" would hide exactly the drift the gate exists to
   catch. Direction matters: [Removed] gates, [Added] never does, and a
   [Noisy] metric (e.g. the optional speedup field) may come and go. *)
let gates d =
  match d.d_class with
  | Regressed -> true
  | Removed -> d.d_kind <> Noisy
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

let kind_name = function
  | Time -> "time"
  | Counter -> "counter"
  | Noisy -> "noisy"

let value_str kind v =
  match kind with
  | Time -> Printf.sprintf "%.4f" v
  | Counter -> Printf.sprintf "%.0f" v
  | Noisy -> Printf.sprintf "%.4g" v

let summary_table deltas =
  let b = Buffer.create 2048 in
  let interesting = List.filter (fun d -> d.d_class <> Unchanged) deltas in
  let count cls = List.length (List.filter (fun d -> d.d_class = cls) deltas) in
  if interesting = [] then
    Buffer.add_string b "all metrics unchanged within thresholds\n"
  else begin
    let rows =
      List.map
        (fun d ->
          [ d.d_workload;
            d.d_flow;
            d.d_metric;
            value_str d.d_kind d.d_base;
            value_str d.d_kind d.d_cand;
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
          Buffer.add_string b
            (Printf.sprintf "%s%-*s" (if i > 0 then "  " else "  ")
               (List.nth widths i) cell))
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

let deltas_json ?(thresholds = default_thresholds) deltas =
  let open Snapshot.Json in
  let count cls = List.length (List.filter (fun d -> d.d_class = cls) deltas) in
  let delta_obj d =
    Obj
      [ ("workload", Str d.d_workload);
        ("flow", Str d.d_flow);
        ("metric", Str d.d_metric);
        ("kind", Str (kind_name d.d_kind));
        ("base", Num d.d_base);
        ("cand", Num d.d_cand);
        ("class", Str (String.lowercase_ascii (class_name d.d_class)))
      ]
  in
  to_string
    (Obj
       [ ("schema_version", Num (float_of_int schema_version));
         ( "thresholds",
           Obj
             [ ("max_time_ratio", Num thresholds.max_time_ratio);
               ("time_floor_s", Num thresholds.time_floor_s)
             ] );
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
