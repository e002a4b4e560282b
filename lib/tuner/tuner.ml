(* Search strategies and tuning reports (see tuner.mli). *)

open Json_util

type strategy = Exhaustive | Greedy | Random

let strategy_name = function
  | Exhaustive -> "exhaustive"
  | Greedy -> "greedy"
  | Random -> "random"

let strategy_of_string = function
  | "exhaustive" -> Some Exhaustive
  | "greedy" -> Some Greedy
  | "random" -> Some Random
  | _ -> None

type result = {
  r_entry : Tune_db.entry;
  r_cached : bool;
  r_space : int;
}

(* ------------------------------------------------------------------ *)
(* Search bookkeeping                                                  *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable evaluated : int;
  mutable illegal : int;
  mutable failed : int;
  mutable default_score : Evaluator.score option;
      (* once set, candidates modeling more DRAM traffic than the
         default are ineligible as "best": the search minimizes total
         cost within the region that does not regress off-chip traffic
         (the paper's primary metric) *)
  mutable best : (Search_space.candidate * Evaluator.score) option;
  mutable trajectory : (string * float) list;  (* reversed *)
  seen : (string, unit) Hashtbl.t;
}

let new_acc () =
  { evaluated = 0;
    illegal = 0;
    failed = 0;
    default_score = None;
    best = None;
    trajectory = [];
    seen = Hashtbl.create 64
  }

let record acc (c, outcome) =
  acc.evaluated <- acc.evaluated + 1;
  match outcome with
  | Evaluator.Illegal msg ->
      acc.illegal <- acc.illegal + 1;
      Obs.event ~cat:"tuner" "tune.illegal"
        [ ("candidate", S (Search_space.candidate_name c)); ("reason", S msg) ]
  | Evaluator.Failed msg ->
      acc.failed <- acc.failed + 1;
      Obs.event ~cat:"tuner" "tune.failed"
        [ ("candidate", S (Search_space.candidate_name c)); ("reason", S msg) ]
  | Evaluator.Scored s ->
      let eligible =
        match acc.default_score with
        | None -> true
        | Some d -> s.Evaluator.sc_dram_bytes <= d.Evaluator.sc_dram_bytes
      in
      let better =
        eligible
        &&
        match acc.best with
        | None -> true
        | Some (_, b) -> Evaluator.compare_scores s b < 0
      in
      if better then begin
        acc.best <- Some (c, s);
        acc.trajectory <-
          (Search_space.candidate_name c, Evaluator.cost s) :: acc.trajectory;
        Obs.event ~cat:"tuner" "tune.improved"
          [ ("candidate", S (Search_space.candidate_name c));
            ("cost", F (Evaluator.cost s))
          ]
      end

(* Evaluate at most [budget - evaluated] unseen candidates, in order. *)
let eval_batch acc ~jobs ~budget p cands =
  let fresh =
    List.filter
      (fun c ->
        let k = Search_space.candidate_name c in
        if Hashtbl.mem acc.seen k then false
        else begin
          Hashtbl.add acc.seen k ();
          true
        end)
      cands
  in
  let room = budget - acc.evaluated in
  let fresh = List.filteri (fun i _ -> i < room) fresh in
  if fresh = [] then []
  else begin
    let results = Evaluator.evaluate ~jobs p fresh in
    List.iter (record acc) results;
    results
  end

let scored_of results =
  List.filter_map
    (function c, Evaluator.Scored s -> Some (c, s) | _ -> None)
    results

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)
(* ------------------------------------------------------------------ *)

let run_exhaustive acc ~jobs ~budget p cands =
  ignore (eval_batch acc ~jobs ~budget p cands)

(* Coordinate descent: move to the best improving neighbor, stop when a
   whole neighborhood fails to improve (or the budget runs out). *)
let run_greedy acc ~jobs ~budget p sp default_scored =
  let rec descend (current, current_score) =
    if acc.evaluated >= budget then ()
    else
      let moves = Search_space.neighbors sp current in
      let results = eval_batch acc ~jobs ~budget p moves in
      match scored_of results with
      | [] -> ()
      | scored ->
          let best =
            List.fold_left
              (fun b x ->
                match b with
                | None -> Some x
                | Some (_, bs) ->
                    if Evaluator.compare_scores (snd x) bs < 0 then Some x
                    else b)
              None scored
          in
          (match best with
          | Some (c, s) when Evaluator.compare_scores s current_score < 0 ->
              descend (c, s)
          | _ -> ())
  in
  descend default_scored

(* Deterministic Fisher-Yates under the given PRNG state. *)
let shuffle st arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let run_random acc ~jobs ~budget ~seed p cands =
  let st = Random.State.make [| seed; 0x7e5 |] in
  let arr = Array.of_list cands in
  shuffle st arr;
  ignore (eval_batch acc ~jobs ~budget p (Array.to_list arr))

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let tune ?(strategy = Greedy) ?(budget = 48) ?(jobs = 1) ?(seed = 0) ?space
    ?db_path ?(force = false) (p : Prog.t) =
  let sp =
    match space with Some sp -> sp | None -> Search_space.make p
  in
  let key = Tune_db.key p sp in
  let db =
    match db_path with
    | None -> Ok Tune_db.empty
    | Some path -> Tune_db.load path
  in
  match db with
  | Error msg -> Error msg
  | Ok db -> (
      match (Tune_db.find db key, force) with
      | Some entry, false ->
          Obs.count "tuner.db_hit";
          Obs.event ~cat:"tuner" "tune.db_hit"
            [ ("workload", S p.Prog.prog_name); ("key", S key) ];
          let space_n = fst (Search_space.enumerate sp) |> List.length in
          Ok { r_entry = entry; r_cached = true; r_space = space_n }
      | _ ->
          if db_path <> None then Obs.count "tuner.db_miss";
          Obs.count "tuner.tunes";
          let cands, pruned = Search_space.enumerate sp in
          Obs.add "tuner.pruned" pruned;
          Obs.event ~cat:"tuner" "tune.begin"
            [ ("workload", S p.Prog.prog_name);
              ("strategy", S (strategy_name strategy));
              ("budget", I budget);
              ("space", I (List.length cands));
              ("pruned", I pruned)
            ];
          let acc = new_acc () in
          let default = Search_space.default_candidate sp in
          let default_r =
            eval_batch acc ~jobs ~budget p [ default ]
          in
          (match scored_of default_r with
          | [] ->
              let reason =
                match default_r with
                | [ (_, Evaluator.Illegal m) ] -> "illegal: " ^ m
                | [ (_, Evaluator.Failed m) ] -> "failed: " ^ m
                | _ -> "not evaluated"
              in
              Error
                (Printf.sprintf "default configuration %s did not score (%s)"
                   (Search_space.candidate_name default)
                   reason)
          | (dc, ds) :: _ ->
              acc.default_score <- Some ds;
              (match strategy with
              | Exhaustive -> run_exhaustive acc ~jobs ~budget p cands
              | Greedy -> run_greedy acc ~jobs ~budget p sp (dc, ds)
              | Random -> run_random acc ~jobs ~budget ~seed p cands);
              let best_c, best_s =
                match acc.best with Some b -> b | None -> (dc, ds)
              in
              let entry =
                Tune_db.make_entry ~workload:p.Prog.prog_name ~key
                  ~strategy:(strategy_name strategy) ~seed ~budget
                  ~best:(best_c, best_s) ~default:(dc, ds)
                  ~evaluated:acc.evaluated ~illegal:acc.illegal
                  ~failed:acc.failed ~pruned
                  ~trajectory:(List.rev acc.trajectory)
              in
              Obs.event ~cat:"tuner" "tune.end"
                [ ("workload", S p.Prog.prog_name);
                  ("best", S (Search_space.candidate_name best_c));
                  ("cost", F (Evaluator.cost best_s));
                  ("evaluated", I acc.evaluated);
                  ("illegal", I acc.illegal)
                ];
              let saved =
                match db_path with
                | Some path -> Tune_db.save path (Tune_db.add db entry)
                | None -> Ok ()
              in
              Result.map
                (fun () ->
                  { r_entry = entry;
                    r_cached = false;
                    r_space = List.length cands
                  })
                saved))

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let pct_delta ~base ~cand =
  if base = 0.0 then 0.0 else (cand -. base) /. base *. 100.0

let report_markdown r =
  let e = r.r_entry in
  let b = Buffer.create 1024 in
  let bs = e.Tune_db.en_best_score and ds = e.Tune_db.en_default_score in
  let cost_b = Evaluator.cost bs and cost_d = Evaluator.cost ds in
  Buffer.add_string b (Printf.sprintf "# tune %s\n\n" e.Tune_db.en_workload);
  Buffer.add_string b
    (Printf.sprintf "- strategy: %s, budget %d, seed %d%s\n"
       e.Tune_db.en_strategy e.Tune_db.en_budget e.Tune_db.en_seed
       (if r.r_cached then " (answered from tuning database)" else ""));
  Buffer.add_string b
    (Printf.sprintf
       "- space: %d candidates after footprint pruning (%d pruned)\n"
       r.r_space e.Tune_db.en_pruned);
  Buffer.add_string b
    (Printf.sprintf "- evaluated: %d (illegal rejected: %d, failed: %d)\n\n"
       e.Tune_db.en_evaluated e.Tune_db.en_illegal e.Tune_db.en_failed);
  Buffer.add_string b
    "| config | cost (bytes) | DRAM bytes | staged bytes | parallelism |\n\
     |---|---|---|---|---|\n";
  let row tag (c : Search_space.candidate) (s : Evaluator.score) =
    Buffer.add_string b
      (Printf.sprintf "| %s %s | %.0f | %d | %d | %.1f |\n" tag
         (Search_space.candidate_name c)
         (Evaluator.cost s) s.Evaluator.sc_dram_bytes
         s.Evaluator.sc_staged_bytes s.Evaluator.sc_parallelism)
  in
  row "default" e.Tune_db.en_default ds;
  row "best" e.Tune_db.en_best bs;
  Buffer.add_string b
    (Printf.sprintf "\ncost delta vs default: %+.1f%% (DRAM %+.1f%%)\n"
       (pct_delta ~base:cost_d ~cand:cost_b)
       (pct_delta
          ~base:(float_of_int ds.Evaluator.sc_dram_bytes)
          ~cand:(float_of_int bs.Evaluator.sc_dram_bytes)));
  if e.Tune_db.en_trajectory <> [] then begin
    Buffer.add_string b "\ntrajectory (best-so-far):\n";
    List.iter
      (fun (name, cost) ->
        Buffer.add_string b (Printf.sprintf "  %12.0f  %s\n" cost name))
      e.Tune_db.en_trajectory
  end;
  Buffer.contents b

let report_json r =
  let e = r.r_entry in
  let extra =
    [ ("cached", Json.Bool r.r_cached);
      ("space_candidates", Json.Num (float_of_int r.r_space));
      ("cost_default", Json.Num (Evaluator.cost e.Tune_db.en_default_score));
      ("cost_best", Json.Num (Evaluator.cost e.Tune_db.en_best_score));
      ( "cost_delta_pct",
        Json.Num
          (pct_delta
             ~base:(Evaluator.cost e.Tune_db.en_default_score)
             ~cand:(Evaluator.cost e.Tune_db.en_best_score)) )
    ]
  in
  match Tune_db.entry_to_json e with
  | Json.Obj fields -> Json.Obj (fields @ extra)
  | j -> j
