(* Perf snapshots: one typed record per workload x flow, covering the
   compile-side signals (per-pass span call counts, obs counters) and
   the machine-model signals (simulated cache hits/misses, footprint
   traffic volumes and their per-array attribution, generated-AST
   size), with a JSON (de)serialization that needs no external
   dependencies. Every field is a deterministic count, so a snapshot is
   an exact fingerprint of the compiler's behaviour; wall time is
   perf/'s job.

   A snapshot is pure data: the metric values from lib/machine and
   lib/codegen are computed by the collector (bench/main.ml) and passed
   in, so this module stays at the bottom of the dependency graph next
   to Obs. Only [capture] reads live Obs state.

   The counters map carries whatever Obs counters the run recorded,
   the Fm memo-cache mirror counters (fm.cache.<name>.hit/.miss/.evict
   and the fm.cache.hit/.miss/.evict aggregates) among them, so cache
   effectiveness is snapshotted and regression-gated alongside the pass
   counters. The collector resets the caches per workload x flow to
   keep them deterministic. *)

module Json = Json_util.Json

type cache_level = { cl_name : string; cl_hits : int; cl_misses : int }

type traffic = {
  tr_read_bytes : int;
  tr_write_bytes : int;
  tr_staged_bytes : int;
}

type ast_stats = { ast_loops : int; ast_kernels : int; ast_nodes : int }

type t = {
  workload : string;
  flow : string;
  span_calls : (string * int) list;
  counters : (string * int) list;
  cache_levels : cache_level list;
  dram_accesses : int;
  traffic : traffic;
  ast : ast_stats;
  attribution : (string * int * int) list;
}

let capture ~workload ~flow ~cache_levels ~dram_accesses ~traffic ~ast
    ~attribution =
  let span_calls =
    Obs.spans_alist ()
    |> List.map (fun (name, (calls, _total_s, _max_s)) -> (name, calls))
    |> List.sort compare
  in
  { workload;
    flow;
    span_calls;
    counters = Obs.counters_alist ();
    cache_levels;
    dram_accesses;
    traffic;
    ast;
    attribution
  }

(* ------------------------------------------------------------------ *)
(* JSON (de)serialization                                              *)
(* ------------------------------------------------------------------ *)

let num i = Json.Num (float_of_int i)

let int_map kvs = Json.Obj (List.map (fun (k, v) -> (k, num v)) kvs)

let to_json s =
  Json.Obj
    [ ("workload", Json.Str s.workload);
      ("flow", Json.Str s.flow);
      ("span_calls", int_map s.span_calls);
      ("counters", int_map s.counters);
      ( "cache",
        Json.Obj
          [ ( "levels",
              Json.Arr
                (List.map
                   (fun l ->
                     Json.Obj
                       [ ("name", Json.Str l.cl_name);
                         ("hits", num l.cl_hits);
                         ("misses", num l.cl_misses)
                       ])
                   s.cache_levels) );
            ("dram", num s.dram_accesses)
          ] );
      ( "traffic",
        Json.Obj
          [ ("read_bytes", num s.traffic.tr_read_bytes);
            ("write_bytes", num s.traffic.tr_write_bytes);
            ("staged_bytes", num s.traffic.tr_staged_bytes)
          ] );
      ( "ast",
        Json.Obj
          [ ("loops", num s.ast.ast_loops);
            ("kernels", num s.ast.ast_kernels);
            ("nodes", num s.ast.ast_nodes)
          ] );
      ( "attribution",
        Json.Arr
          (List.map
             (fun (name, r, w) ->
               Json.Obj
                 [ ("array", Json.Str name);
                   ("read_bytes", num r);
                   ("write_bytes", num w)
                 ])
             s.attribution) )
    ]

let to_string s = Json.to_string (to_json s)

(* of_json: spelled with a tiny error monad so every failure names the
   missing/ill-typed field. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_int name = function
  | Json.Num f -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "field %S is not a number" name)

let str_field name j =
  match field name j with
  | Ok (Json.Str s) -> Ok s
  | Ok _ -> Error (Printf.sprintf "field %S is not a string" name)
  | Error _ as e -> e

let int_field name j =
  let* v = field name j in
  as_int name v

(* Parse each element with [f], keeping order. *)
let map_result f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

let int_map_field name j =
  match field name j with
  | Ok (Json.Obj fields) ->
      map_result
        (fun (k, v) ->
          let* n = as_int k v in
          Ok (k, n))
        fields
  | Ok _ -> Error (Printf.sprintf "field %S is not an object" name)
  | Error _ as e -> e

let arr_field name j =
  match field name j with
  | Ok (Json.Arr l) -> Ok l
  | Ok _ -> Error (Printf.sprintf "field %S is not an array" name)
  | Error _ as e -> e

let of_json j =
  let* workload = str_field "workload" j in
  let* flow = str_field "flow" j in
  let* span_calls = int_map_field "span_calls" j in
  let* counters = int_map_field "counters" j in
  let* cache_j = field "cache" j in
  let* levels_j = arr_field "levels" cache_j in
  let* cache_levels =
    map_result
      (fun l ->
        let* name = str_field "name" l in
        let* hits = int_field "hits" l in
        let* misses = int_field "misses" l in
        Ok { cl_name = name; cl_hits = hits; cl_misses = misses })
      levels_j
  in
  let* dram_accesses = int_field "dram" cache_j in
  let* traffic_j = field "traffic" j in
  let* read_bytes = int_field "read_bytes" traffic_j in
  let* write_bytes = int_field "write_bytes" traffic_j in
  let* staged_bytes = int_field "staged_bytes" traffic_j in
  let* ast_j = field "ast" j in
  let* loops = int_field "loops" ast_j in
  let* kernels = int_field "kernels" ast_j in
  let* nodes = int_field "nodes" ast_j in
  let* attribution_j = arr_field "attribution" j in
  let* attribution =
    map_result
      (fun r ->
        let* name = str_field "array" r in
        let* rd = int_field "read_bytes" r in
        let* wr = int_field "write_bytes" r in
        Ok (name, rd, wr))
      attribution_j
  in
  Ok
    { workload;
      flow;
      span_calls;
      counters;
      cache_levels;
      dram_accesses;
      traffic =
        { tr_read_bytes = read_bytes;
          tr_write_bytes = write_bytes;
          tr_staged_bytes = staged_bytes
        };
      ast = { ast_loops = loops; ast_kernels = kernels; ast_nodes = nodes };
      attribution
    }

let of_string s =
  let* j = Json.parse s in
  of_json j
