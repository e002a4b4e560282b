(* Content-addressed on-disk tuning database (see tune_db.mli). *)

open Json_util

type entry = {
  en_workload : string;
  en_key : string;
  en_created : string;
  en_strategy : string;
  en_seed : int;
  en_budget : int;
  en_best : Search_space.candidate;
  en_best_score : Evaluator.score;
  en_default : Search_space.candidate;
  en_default_score : Evaluator.score;
  en_evaluated : int;
  en_illegal : int;
  en_failed : int;
  en_pruned : int;
  en_trajectory : (string * float) list;
}

(* key -> entry, kept sorted for deterministic serialization *)
type t = (string * entry) list

let schema_version = 1

let empty = []

(* ------------------------------------------------------------------ *)
(* Content addressing                                                  *)
(* ------------------------------------------------------------------ *)

let prog_canonical (p : Prog.t) =
  let b = Buffer.create 1024 in
  Buffer.add_string b p.Prog.prog_name;
  List.iter
    (fun (n, v) -> Buffer.add_string b (Printf.sprintf ";param %s=%d" n v))
    p.Prog.params;
  List.iter
    (fun (a : Prog.array_decl) ->
      Buffer.add_string b
        (Printf.sprintf ";array %s[%s]" a.Prog.array_name
           (String.concat ","
              (List.map string_of_int
                 (Prog.array_extent p a.Prog.array_name)))))
    p.Prog.arrays;
  List.iter
    (fun (s : Prog.stmt) ->
      Buffer.add_string b
        (Printf.sprintf ";stmt %s nest=%s dom=%s ops=%d red=%d guard=%b"
           s.Prog.stmt_name s.Prog.nest
           (Presburger.Bset.to_string s.Prog.domain)
           s.Prog.ops s.Prog.reduction_dims
           (s.Prog.guard <> None));
      Buffer.add_string b
        (Printf.sprintf " w:%s=%s" s.Prog.write.Prog.array
           (Presburger.Bmap.to_string s.Prog.write.Prog.rel));
      List.iter
        (fun (a : Prog.access) ->
          Buffer.add_string b
            (Printf.sprintf " r:%s=%s" a.Prog.array
               (Presburger.Bmap.to_string a.Prog.rel)))
        s.Prog.reads)
    p.Prog.stmts;
  Buffer.add_string b (";liveout " ^ String.concat "," p.Prog.live_out);
  Buffer.contents b

let prog_digest p = Digest.to_hex (Digest.string (prog_canonical p))

(* Every tune targets the CPU model. The key still ends in the target
   name, so the keys of stored databases stay valid. *)
let key p sp =
  let raw =
    Printf.sprintf "%s|%s|cpu" (prog_digest p) (Search_space.signature sp)
  in
  Digest.to_hex (Digest.string raw)

(* ------------------------------------------------------------------ *)
(* Entries                                                             *)
(* ------------------------------------------------------------------ *)

let iso8601 time =
  let tm = Unix.gmtime time in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let make_entry ~workload ~key ~strategy ~seed ~budget ~best ~default
    ~evaluated ~illegal ~failed ~pruned ~trajectory =
  let best_c, best_s = best in
  let default_c, default_s = default in
  { en_workload = workload;
    en_key = key;
    en_created = iso8601 (Unix.time ());
    en_strategy = strategy;
    en_seed = seed;
    en_budget = budget;
    en_best = best_c;
    en_best_score = best_s;
    en_default = default_c;
    en_default_score = default_s;
    en_evaluated = evaluated;
    en_illegal = illegal;
    en_failed = failed;
    en_pruned = pruned;
    en_trajectory = trajectory
  }

let find (db : t) k = List.assoc_opt k db

let add (db : t) e =
  List.sort (fun (a, _) (b, _) -> compare a b)
    ((e.en_key, e) :: List.remove_assoc e.en_key db)

let entries (db : t) = List.map snd db

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let entry_to_json e =
  Json.Obj
    [ ("workload", Json.Str e.en_workload);
      ("key", Json.Str e.en_key);
      ("created", Json.Str e.en_created);
      ("strategy", Json.Str e.en_strategy);
      ("seed", Json.Num (float_of_int e.en_seed));
      ("budget", Json.Num (float_of_int e.en_budget));
      ("best", Search_space.candidate_to_json e.en_best);
      ("best_score", Evaluator.score_to_json e.en_best_score);
      ("default", Search_space.candidate_to_json e.en_default);
      ("default_score", Evaluator.score_to_json e.en_default_score);
      ("evaluated", Json.Num (float_of_int e.en_evaluated));
      ("illegal", Json.Num (float_of_int e.en_illegal));
      ("failed", Json.Num (float_of_int e.en_failed));
      ("pruned", Json.Num (float_of_int e.en_pruned));
      ( "trajectory",
        Json.Arr
          (List.map
             (fun (name, cost) ->
               Json.Obj [ ("candidate", Json.Str name); ("cost", Json.Num cost) ])
             e.en_trajectory) )
    ]

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let entry_of_json j =
  let str k =
    match Json.member k j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "entry: missing %s" k)
  in
  let int k =
    match Json.member k j with
    | Some (Json.Num f) -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "entry: missing %s" k)
  in
  let sub k parse =
    match Json.member k j with
    | Some v -> parse v
    | None -> Error (Printf.sprintf "entry: missing %s" k)
  in
  let* workload = str "workload" in
  let* key = str "key" in
  let* created = str "created" in
  let* strategy = str "strategy" in
  let* seed = int "seed" in
  let* budget = int "budget" in
  let* best = sub "best" Search_space.candidate_of_json in
  let* best_score = sub "best_score" Evaluator.score_of_json in
  let* default = sub "default" Search_space.candidate_of_json in
  let* default_score = sub "default_score" Evaluator.score_of_json in
  let* evaluated = int "evaluated" in
  let* illegal = int "illegal" in
  let* failed = int "failed" in
  let* pruned = int "pruned" in
  let* trajectory =
    match Json.member "trajectory" j with
    | Some (Json.Arr l) ->
        List.fold_left
          (fun acc p ->
            let* acc = acc in
            match (Json.member "candidate" p, Json.member "cost" p) with
            | Some (Json.Str n), Some (Json.Num c) -> Ok ((n, c) :: acc)
            | _ -> Error "entry: malformed trajectory point")
          (Ok []) l
        |> Result.map List.rev
    | _ -> Error "entry: missing trajectory"
  in
  Ok
    { en_workload = workload;
      en_key = key;
      en_created = created;
      en_strategy = strategy;
      en_seed = seed;
      en_budget = budget;
      en_best = best;
      en_best_score = best_score;
      en_default = default;
      en_default_score = default_score;
      en_evaluated = evaluated;
      en_illegal = illegal;
      en_failed = failed;
      en_pruned = pruned;
      en_trajectory = trajectory
    }

let to_json (db : t) =
  Json.Obj
    [ ("schema_version", Json.Num (float_of_int schema_version));
      ("entries", Json.Arr (List.map (fun (_, e) -> entry_to_json e) db))
    ]

let of_json j =
  let* version =
    match Json.member "schema_version" j with
    | Some (Json.Num f) -> Ok (int_of_float f)
    | _ -> Error "tune_db: missing schema_version"
  in
  if version <> schema_version then
    Error
      (Printf.sprintf "tune_db: unsupported schema_version %d (expected %d)"
         version schema_version)
  else
    let* entries =
      match Json.member "entries" j with
      | Some (Json.Arr l) ->
          List.fold_left
            (fun acc ej ->
              let* acc = acc in
              let* e = entry_of_json ej in
              Ok ((e.en_key, e) :: acc))
            (Ok []) l
          |> Result.map List.rev
      | _ -> Error "tune_db: missing entries"
    in
    Ok (List.sort (fun (a, _) (b, _) -> compare a b) entries)

let load path =
  if not (Sys.file_exists path) then Ok empty
  else
    let* text =
      Result.map_error (fun msg -> "tune_db " ^ msg) (read_file path)
    in
    if String.trim text = "" then Ok empty
    else
      let* j =
        match Json.parse text with
        | Ok j -> Ok j
        | Error msg -> Error (Printf.sprintf "tune_db %s: %s" path msg)
      in
      of_json j

let save path (db : t) =
  Result.map_error (fun msg -> "tune_db " ^ msg) (write_json path (to_json db))
