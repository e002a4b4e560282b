(* perf/main.exe: the benchmark of the compile, execute and tune paths.

     main.exe workload --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                       [--smoke] [--out FILE]
     main.exe run      [--seed N] [--seconds S] [--traced] [--smoke]
                       [--out DIR] [--bench FILE]
     main.exe spread   [--runs R] [--seed N] [--seconds S] [--out DIR]
                       [--bench FILE]
     main.exe compare  --base DIR --cand DIR [--bench FILE]

   [workload] measures one workload in this process and prints its
   metrics, the last line being one JSON object. [run] starts one such
   process per workload, so set-up time, peak memory and the GC heap
   stay per workload and a crash costs one workload, not the suite.
   README.md describes the workloads and metrics. *)

module Json = Json_util.Json

let now = Unix.gettimeofday

let sum l = List.fold_left ( +. ) 0.0 l

let ratio a b = if b > 0.0 then a /. b else 0.0

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Linear interpolation between the closest ranks of a sorted array. *)
let quantile s q =
  let n = Array.length s in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median l = quantile (sorted l) 0.5

(* The highest percentile with at least ten samples beyond it, and its
   rank as a fraction. Below 21 samples no such percentile lies above
   the median, and the median is reported. *)
let tail s =
  let n = Array.length s in
  if n >= 21 then (s.(n - 11), float_of_int (n - 11) /. float_of_int (n - 1))
  else (quantile s 0.5, 0.5)

(* VmHWM, the peak resident set of this process, in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb *. 1024.0 /. 1e6
            | None -> find ())
      in
      find ())

(* ------------------------------------------------------------------ *)
(* Measuring one workload                                              *)
(* ------------------------------------------------------------------ *)

(* What one phase (the set-up warm-ups, the timed passes or the traced
   passes) observed. *)
type phase = {
  mutable times : float list;  (* seconds per completed op *)
  mutable passes : int;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable ast_nodes : int;
  mutable dram_lines : int;
  mutable instances : int;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable execute_s : float;
  mutable profile_s : float;
  mutable interp_only_s : float;
  mutable hc_systems : int;  (* most systems one op left interned *)
}

let new_phase () =
  { times = [];
    passes = 0;
    attempted = 0;
    failed = 0;
    errors = [];
    ast_nodes = 0;
    dram_lines = 0;
    instances = 0;
    l1_hits = 0;
    l1_misses = 0;
    execute_s = 0.0;
    profile_s = 0.0;
    interp_only_s = 0.0;
    hc_systems = 0
  }

let fail ph msg =
  ph.failed <- ph.failed + 1;
  ph.errors <- msg :: ph.errors

(* Per op name, across set-ups and phases: the first fingerprint seen
   and the number of attempts. *)
let fingerprints : (string, string) Hashtbl.t = Hashtbl.create 64

let attempts : (string, int) Hashtbl.t = Hashtbl.create 64

(* Every op starts from an empty Fm cache and a collected heap, as in a
   fresh memcomp process, so that its time does not depend on the ops
   before it; neither is timed. With [interp_only], the op's AST is run
   once more without the cache simulator, after the op. *)
let run_op ph ~interp_only (op : Suite.op) =
  let name = op.Suite.name in
  let error e = fail ph (name ^ ": " ^ Printexc.to_string e) in
  Presburger.Fm_cache.reset ();
  Gc.full_major ();
  ph.attempted <- ph.attempted + 1;
  Hashtbl.replace attempts name
    (1 + Option.value ~default:0 (Hashtbl.find_opt attempts name));
  let t0 = now () in
  match Obs.span "bench.op" op.Suite.run with
  | exception e -> error e
  | inspect -> (
      ph.times <- (now () -. t0) :: ph.times;
      ph.hc_systems <- max ph.hc_systems (Presburger.Hc.n_interned_systems ());
      match inspect () with
      | exception e -> error e
      | s ->
          ph.ast_nodes <- ph.ast_nodes + s.Suite.ast_nodes;
          ph.dram_lines <- ph.dram_lines + s.Suite.dram_lines;
          ph.instances <- ph.instances + s.Suite.instances;
          ph.l1_hits <- ph.l1_hits + s.Suite.l1_hits;
          ph.l1_misses <- ph.l1_misses + s.Suite.l1_misses;
          ph.execute_s <- ph.execute_s +. s.Suite.execute_s;
          ph.profile_s <- ph.profile_s +. s.Suite.profile_s;
          (match Hashtbl.find_opt fingerprints name with
          | None -> Hashtbl.add fingerprints name s.Suite.fingerprint
          | Some f when f = s.Suite.fingerprint -> ()
          | Some f ->
              fail ph
                (Printf.sprintf "%s: output %S differs from the earlier %S" name
                   s.Suite.fingerprint f));
          if not s.Suite.ok then
            fail ph (name ^ ": live-outs differ from the naive schedule");
          if interp_only then begin
            let t0 = now () in
            try
              op.Suite.interp_only ();
              ph.interp_only_s <- ph.interp_only_s +. (now () -. t0)
            with e -> error e
          end)

(* A fixed number of whole passes, so that every run times the same mix
   and number of ops whatever the speed of the code: as many as take
   about [seconds] on the reference machine, and at least one. *)
let timed_phase (w : Suite.t) ~seconds ~interp_only =
  let ph = new_phase () in
  let passes = max 1 (int_of_float (Float.round (seconds /. w.Suite.pass_s))) in
  for _ = 1 to passes do
    List.iter (run_op ph ~interp_only) w.Suite.ops
  done;
  ph.passes <- passes;
  ph

(* Set-up builds the programs (execute-tiles also compiles them) and
   runs one untimed warm-up op. It runs five times: setup_s is the
   median, and the last set-up is the one measured. *)
let set_up name ~seed ~smoke =
  let ph = new_phase () in
  let once () =
    let t0 = now () in
    let w = Suite.make name ~seed ~smoke in
    run_op ph ~interp_only:false w.Suite.warmup;
    (now () -. t0, w)
  in
  let runs = List.init 5 (fun _ -> once ()) in
  (median (List.map fst runs), snd (List.nth runs 4), ph)

(* Untimed, after timing: each checked op's last result against the
   naive schedule. A mismatch fails every attempt of that op. *)
let verify (w : Suite.t) ph =
  let t0 = now () in
  List.iter
    (fun (op : Suite.op) ->
      let failure =
        match op.Suite.verify () with
        | true -> None
        | false -> Some "live-outs differ from the naive schedule"
        | exception e -> Some (Printexc.to_string e)
      in
      Option.iter
        (fun msg ->
          ph.failed <- ph.failed + Hashtbl.find attempts op.Suite.name;
          ph.errors <- (op.Suite.name ^ ": " ^ msg) :: ph.errors)
        failure)
    w.Suite.verify_ops;
  now () -. t0

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let end_to_end ~setup_s ~rss ~offchip_bytes ph =
  let s = sorted ph.times in
  [ m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (float_of_int (Array.length s) /. sum ph.times);
    m "op_p50_ms" "ms" (1e3 *. quantile s 0.5);
    m "op_tail_ms" "ms" (1e3 *. fst (tail s));
    m "peak_rss_mb" "MB" rss;
    m "offchip_mb" "MB" (float_of_int offchip_bytes /. 1e6)
  ]

(* Per-layer metrics per pass. Each name starts with its layer, named
   after its lib/ directory. The machine times come from the untraced
   passes, since Obs counts every cache probe; the rest from the traced
   ones. *)
let per_layer ~untraced ph self =
  let k = float_of_int ph.passes in
  let per x = x /. k in
  let count name = per (float_of_int (Obs.counter_value name)) in
  let calls name = per (float_of_int (Obs.span_calls name)) in
  let incl name = per (Obs.span_total_s name) in
  let self_of name = per (Ledger.span_self self name) in
  let layer l = m (l ^ ".self_s") "s" (per (Ledger.layer_self self l)) in
  let hits = float_of_int (Obs.counter_value "fm.cache.hit") in
  let lookups = hits +. float_of_int (Obs.counter_value "fm.cache.miss") in
  let pass_wall p = sum p.times /. float_of_int p.passes in
  let untraced_per x = x /. float_of_int untraced.passes in
  let profile_s = untraced_per untraced.profile_s in
  let interp_only_s = untraced_per untraced.interp_only_s in
  let instances = per (float_of_int ph.instances) in
  [ m "presburger.fm_eliminate" "count" (count "fm.eliminate");
    m "presburger.fm_is_empty" "count" (count "fm.is_empty");
    m "presburger.fm_cache_lookups" "count" (per lookups);
    m "presburger.fm_cache_hit_ratio" "ratio" (ratio hits lookups);
    m "presburger.hc_systems" "count" (float_of_int ph.hc_systems);
    layer "poly_ir";
    m "poly_ir.deps_self_s" "s" (per (Ledger.prefix_self self "deps."));
    m "poly_ir.deps_pair_tests" "count" (count "deps.pair_tests");
    layer "scheduler";
    m "scheduler.fusion_self_s" "s" (self_of "fusion.schedule");
    m "scheduler.search_steps" "count" (count "fusion.search_steps");
    layer "core";
    m "core.pipeline_run_s" "s" (incl "bench.core.run");
    m "core.tile_shapes_self_s" "s" (self_of "tile_shapes.construct");
    m "core.tile_shapes_calls" "count" (calls "tile_shapes.construct");
    m "core.post_tiling_self_s" "s" (per (Ledger.prefix_self self "post_tiling."));
    layer "codegen";
    m "codegen.generate_s" "s" (incl "bench.codegen.generate");
    m "codegen.ast_nodes" "count" (per (float_of_int ph.ast_nodes));
    layer "machine";
    m "machine.profile_s" "s" profile_s;
    m "machine.interp_only_s" "s" interp_only_s;
    m "machine.cache_sim_s" "s"
      (if profile_s > 0.0 then profile_s -. interp_only_s else 0.0);
    m "machine.instances" "count" instances;
    m "machine.ns_per_instance" "ns" (1e9 *. ratio profile_s instances);
    m "machine.cache_accesses" "count" (count "cache.accesses");
    m "machine.l1_hit_ratio" "ratio"
      (ratio (float_of_int ph.l1_hits) (float_of_int (ph.l1_hits + ph.l1_misses)));
    m "machine.dram_lines" "count" (per (float_of_int ph.dram_lines));
    layer "runtime";
    m "runtime.run_s" "s" (incl "bench.runtime.run");
    m "runtime.execute_s" "s" (per ph.execute_s);
    m "runtime.extract_self_s" "s" (self_of "runtime.extract");
    m "runtime.tiles" "count" (count "runtime.tiles");
    m "runtime.edges" "count" (count "runtime.edges");
    layer "verify";
    m "verify.check_self_s" "s" (self_of "verify.check");
    m "verify.check_calls" "count" (calls "verify.check");
    layer "tuner";
    m "tuner.tune_s" "s" (incl "bench.tuner.tune");
    m "tuner.evaluate_self_s" "s" (self_of "tuner.evaluate");
    m "tuner.evaluated" "count" (count "tuner.evaluated");
    m "tuner.illegal" "count" (count "tuner.illegal");
    m "bench.op_s" "s" (incl "bench.op");
    m "bench.unattributed_s" "s" (self_of "bench.op");
    m "obs.overhead_ratio" "ratio" (ratio (pass_wall ph) (pass_wall untraced))
  ]

let metrics_json ms =
  Json.Obj
    (List.map
       (fun x ->
         let v = if Float.is_finite x.value then Json.Num x.value else Json.Null in
         (x.name, Json.Obj [ ("value", v); ("unit", Json.Str x.unit_) ]))
       ms)

let print_metrics workload ms =
  List.iter (fun x -> Printf.printf "%s %s %.6g %s\n" workload x.name x.value x.unit_) ms

(* Self seconds per layer per pass; the rows add up to the op wall time. *)
let print_ledger workload ~passes self =
  let per x = x /. float_of_int passes in
  let total = Hashtbl.fold (fun _ s acc -> acc +. s) self 0.0 in
  Printf.printf "%s ledger: self seconds per pass over %d passes\n" workload passes;
  List.iter
    (fun l ->
      let s = Ledger.layer_self self l in
      if s > 0.0 then
        Printf.printf "  %-10s %10.4f s %6.2f%%\n" l (per s) (100.0 *. ratio s total))
    Ledger.layers;
  Printf.printf "  %-10s %10.4f s\n" "op wall" (per total)

let write_json file j =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

let workload_cmd ~name ~seed ~seconds ~traced ~smoke ~out =
  let setup_s, w, setup_ph = set_up name ~seed ~smoke in
  let ph = timed_phase w ~seconds ~interp_only:traced in
  let rss = peak_rss_mb () in
  let traced_ph, layers =
    if not traced then (None, [])
    else begin
      Obs.reset ();
      Obs.enable ();
      let tph = timed_phase w ~seconds ~interp_only:false in
      Obs.disable ();
      let self = Ledger.self_times (Obs.trace_events ()) in
      print_ledger name ~passes:tph.passes self;
      Option.iter
        (fun file ->
          Obs.write_chrome_trace (Filename.remove_extension file ^ ".trace.json"))
        out;
      (Some tph, per_layer ~untraced:ph tph self)
    end
  in
  let verify_s = verify w ph in
  let offchip_bytes =
    List.fold_left
      (fun acc (op : Suite.op) ->
        if op.Suite.fixed then acc + op.Suite.offchip_bytes () else acc)
      0 w.Suite.ops
  in
  let all = setup_ph :: ph :: Option.to_list traced_ph in
  let attempted = List.fold_left (fun acc p -> acc + p.attempted) 0 all in
  let failed = List.fold_left (fun acc p -> acc + p.failed) 0 all in
  let errors = List.concat_map (fun p -> List.rev p.errors) all in
  let correct = failed = 0 && errors = [] in
  let e2e = end_to_end ~setup_s ~rss ~offchip_bytes ph in
  let info =
    [ m "n" "count" (float_of_int (List.length ph.times));
      m "tail_q" "ratio" (snd (tail (sorted ph.times)));
      m "passes" "count" (float_of_int ph.passes);
      m "error_rate" "ratio" (ratio (float_of_int failed) (float_of_int attempted));
      m "verify_s" "s" verify_s
    ]
    @
    if ph.dram_lines > 0 then
      [ m "dram_lines" "count" (float_of_int (ph.dram_lines / ph.passes)) ]
    else []
  in
  List.iter (fun e -> Printf.printf "%s error %s\n" name e) errors;
  print_metrics name (e2e @ info @ layers);
  Option.iter
    (fun file ->
      write_json file
        (Json.Obj
           [ ("workload", Json.Str name);
             ("seed", Json.Num (float_of_int seed));
             ("seconds", Json.Num seconds);
             ("traced", Json.Bool traced);
             ("smoke", Json.Bool smoke);
             ("attempted", Json.Num (float_of_int attempted));
             ("failed", Json.Num (float_of_int failed));
             ("correct", Json.Bool correct);
             ("errors", Json.Arr (List.map (fun e -> Json.Str e) errors));
             ("end_to_end", metrics_json e2e);
             ("info", metrics_json info);
             ("per_layer", metrics_json layers)
           ]))
    out;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", metrics_json (if traced then layers else e2e))
          ]));
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Result files and BENCHMARK.json                                     *)
(* ------------------------------------------------------------------ *)

let read_json file =
  match Json.parse (In_channel.with_open_text file In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (file ^ ": " ^ e)

let member k j = Option.value ~default:Json.Null (Json.member k j)

let num j = match j with Json.Num f -> f | _ -> nan

let str j = match j with Json.Str s -> s | _ -> ""

let metric_value record group name = num (member "value" (member name (member group record)))

let metric_unit record group name = str (member "unit" (member name (member group record)))

type spec = { s_name : string; s_unit : string; s_lower : bool; s_bound : float }

(* The end_to_end and per_layer metric lists of a BENCHMARK.json. *)
let load_bench file =
  let j = read_json file in
  let specs key =
    match member key j with
    | Json.Arr l ->
        List.map
          (fun e ->
            { s_name = str (member "name" e);
              s_unit = str (member "unit" e);
              s_lower = str (member "better" e) = "lower";
              s_bound = num (member "bound" e)
            })
          l
    | _ -> failwith (file ^ ": no " ^ key ^ " list")
  in
  (specs "end_to_end", specs "per_layer")

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let print_errors (name, r) =
  match member "errors" r with
  | Json.Arr es -> List.iter (fun e -> Printf.printf "%s error %s\n" name (str e)) es
  | _ -> ()

(* One process per workload; its JSON record is read back from
   DIR/NAME.json, and a child that dies leaves one failed op in its
   place. The children's reports go to stderr, or nowhere for a smoke
   run, which prints only what failed. *)
let run_suite ~seed ~seconds ~traced ~smoke ~out =
  mkdir_p out;
  let exe = Sys.executable_name in
  let report =
    if smoke then Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 else Unix.stderr
  in
  let records =
    List.map
      (fun name ->
        let file = Filename.concat out (name ^ ".json") in
        if Sys.file_exists file then Sys.remove file;
        let args =
          [ exe; "workload"; "--workload"; name; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace";
            (if traced then "1" else "0"); "--out"; file ]
          @ if smoke then [ "--smoke" ] else []
        in
        let pid = Unix.create_process exe (Array.of_list args) Unix.stdin report report in
        let status = snd (Unix.waitpid [] pid) in
        let record =
          if Sys.file_exists file then read_json file
          else
            Json.Obj
              [ ("workload", Json.Str name);
                ("attempted", Json.Num 1.0);
                ("failed", Json.Num 1.0);
                ("correct", Json.Bool false);
                ("errors", Json.Arr [ Json.Str (status_string status) ])
              ]
        in
        (name, record))
      Suite.names
  in
  if smoke then Unix.close report;
  write_json (Filename.concat out "run.json")
    (Json.Obj
       [ ("seed", Json.Num (float_of_int seed));
         ("traced", Json.Bool traced);
         ("workloads", Json.Obj records)
       ]);
  records

(* Every metric of every workload as "workload metric value unit". *)
let print_records records =
  List.iter
    (fun ((name, r) as nr) ->
      List.iter
        (fun g ->
          match member g r with
          | Json.Obj l ->
              List.iter
                (fun (k, v) ->
                  Printf.printf "%s %s %.6g %s\n" name k (num (member "value" v))
                    (str (member "unit" v)))
                l
          | _ -> ())
        [ "end_to_end"; "info"; "per_layer" ];
      print_errors nr)
    records;
  flush stdout

let all_correct records =
  List.for_all (fun (_, r) -> member "correct" r = Json.Bool true) records

(* Every metric BENCHMARK.json names appears with its unit in every
   workload's record: end_to_end ones untraced, per_layer ones traced. *)
let check_names ~bench ~untraced ~traced =
  let e2e, layers = load_bench bench in
  let missing = ref [] in
  let check records group specs =
    List.iter
      (fun (w, r) ->
        List.iter
          (fun s ->
            let u = metric_unit r group s.s_name in
            if u <> s.s_unit || Float.is_nan (metric_value r group s.s_name) then
              missing := Printf.sprintf "%s %s %s (unit %S)" w group s.s_name u :: !missing)
          specs)
      records
  in
  check untraced "end_to_end" e2e;
  check traced "per_layer" layers;
  List.iter (fun s -> Printf.printf "smoke: missing %s\n" s) (List.rev !missing);
  !missing = []

(* ------------------------------------------------------------------ *)
(* spread and compare                                                  *)
(* ------------------------------------------------------------------ *)

let values runs workload name =
  List.filter_map
    (fun run ->
      let v = metric_value (member workload (member "workloads" run)) "end_to_end" name in
      if Float.is_nan v then None else Some v)
    runs

(* (max - min) / median of each end-to-end metric over [runs] runs with
   consecutive seeds; fails when one exceeds its bound. *)
let spread_cmd ~runs ~seed ~seconds ~out ~bench =
  let e2e, _ = load_bench bench in
  let results =
    List.init runs (fun i ->
        let dir = Filename.concat out (Printf.sprintf "run-%d" (i + 1)) in
        let records = run_suite ~seed:(seed + i) ~seconds ~traced:false ~smoke:false ~out:dir in
        (all_correct records, read_json (Filename.concat dir "run.json")))
  in
  let runs_json = List.map snd results in
  let ok = ref (List.for_all fst results) in
  Printf.printf "%-15s %-12s %12s %8s %6s\n" "workload" "metric" "median" "spread" "bound";
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          let vs = values runs_json w s.s_name in
          let med = median vs in
          let sp =
            if vs = [] then nan
            else ratio (List.fold_left max neg_infinity vs -. List.fold_left min infinity vs) med
          in
          let over = Float.is_nan sp || sp > s.s_bound in
          if over then ok := false;
          Printf.printf "%-15s %-12s %12.6g %7.2f%% %5.1f%%%s\n" w s.s_name med (100.0 *. sp)
            (100.0 *. s.s_bound) (if over then "  OVER" else ""))
        e2e)
    Suite.names;
  if not !ok then exit 1

(* The run.json files of a directory and of its immediate subdirectories. *)
let load_runs dir =
  let subdirs =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.map (fun d -> Filename.concat (Filename.concat dir d) "run.json")
  in
  List.filter Sys.file_exists (Filename.concat dir "run.json" :: subdirs)
  |> List.map read_json

(* The rule of the choosing-metrics guide: a change is better when it
   wins at least 9 in 10 pairs and the medians differ by more than the
   base's interquartile range; worse when its median is worse by more
   than the bound; unresolved when the base's own spread exceeds the
   bound, unless every candidate run beats every base run. Counts that
   repeat exactly on both sides compare exactly. *)
let verdict s base cand =
  let better a b = if s.s_lower then a < b else a > b in
  let mb = median base and mc = median cand in
  let bs = sorted base in
  let iqr = quantile bs 0.75 -. quantile bs 0.25 in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip base cand in
  let wins = List.length (List.filter (fun (b, c) -> better c b) pairs) in
  let pairs = List.length pairs in
  let constant l = List.for_all (fun v -> v = List.hd l) l in
  let worse_by = (if s.s_lower then mc -. mb else mb -. mc) /. Float.abs mb in
  let every_better = List.for_all (fun c -> List.for_all (better c) base) cand in
  let v =
    if constant base && constant cand && mb <> mc then
      if better mc mb then "better" else "worse"
    else if 10 * wins >= 9 * pairs && Float.abs (mc -. mb) > iqr && better mc mb then "better"
    else if worse_by > s.s_bound then "worse"
    else if iqr /. Float.abs mb > s.s_bound && not every_better then "unresolved"
    else "within bound"
  in
  (mb, bs, mc, sorted cand, wins, pairs, v)

let compare_cmd ~base ~cand ~bench =
  let e2e, _ = load_bench bench in
  let b = load_runs base and c = load_runs cand in
  if b = [] || c = [] then die "no run.json under %s or %s" base cand;
  let regressions = ref 0 in
  Printf.printf "%-15s %-12s %28s %28s %8s %6s  %s\n" "workload" "metric"
    "base median [q1, q3]" "cand median [q1, q3]" "change" "wins" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          match (values b w s.s_name, values c w s.s_name) with
          | [], _ | _, [] -> Printf.printf "%-15s %-12s missing\n" w s.s_name
          | bv, cv ->
              let mb, bs, mc, cs, wins, pairs, v = verdict s bv cv in
              if v = "worse" then incr regressions;
              let cell med q =
                Printf.sprintf "%.6g [%.4g, %.4g]" med (quantile q 0.25) (quantile q 0.75)
              in
              Printf.printf "%-15s %-12s %28s %28s %+7.2f%% %3d/%-2d  %s\n" w s.s_name
                (cell mb bs) (cell mc cs)
                (100.0 *. ratio (mc -. mb) (Float.abs mb))
                wins pairs v)
        e2e)
    Suite.names;
  if !regressions > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let parse ~flags ~opts args =
  let rec go acc = function
    | [] -> acc
    | a :: rest when List.mem a flags -> go ((a, "") :: acc) rest
    | a :: v :: rest when List.mem a opts -> go ((a, v) :: acc) rest
    | a :: _ -> die "unexpected argument %s (see perf/README.md)" a
  in
  go [] args

let opt args k = List.assoc_opt k args

let has args k = List.mem_assoc k args

let int_opt args k default =
  match opt args k with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> die "%s wants an integer" k)

let float_opt args k default =
  match opt args k with
  | None -> default
  | Some v -> ( match float_of_string_opt v with Some f -> f | None -> die "%s wants a number" k)

let default_seconds = 15.0

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "workload" :: rest ->
      let a =
        parse ~flags:[ "--smoke" ]
          ~opts:[ "--workload"; "--seed"; "--seconds"; "--trace"; "--out" ]
          rest
      in
      let name =
        match opt a "--workload" with
        | Some n when List.mem n Suite.names -> n
        | Some n -> die "unknown workload %s (available: %s)" n (String.concat ", " Suite.names)
        | None -> die "workload needs --workload NAME"
      in
      let traced =
        match opt a "--trace" with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some t -> die "--trace wants 0 or 1, not %s" t
      in
      workload_cmd ~name ~seed:(int_opt a "--seed" 1)
        ~seconds:(float_opt a "--seconds" default_seconds)
        ~traced ~smoke:(has a "--smoke") ~out:(opt a "--out")
  | "run" :: rest ->
      let a =
        parse ~flags:[ "--traced"; "--smoke" ]
          ~opts:[ "--seed"; "--seconds"; "--out"; "--bench" ]
          rest
      in
      let seed = int_opt a "--seed" 1 and out = Option.value ~default:"perf-out" (opt a "--out") in
      if has a "--smoke" then begin
        (* one pass of small instances, untraced and traced *)
        let untraced = run_suite ~seed ~seconds:0.0 ~traced:false ~smoke:true ~out in
        let traced =
          run_suite ~seed ~seconds:0.0 ~traced:true ~smoke:true
            ~out:(Filename.concat out "traced")
        in
        List.iter print_errors (untraced @ traced);
        let names_ok =
          check_names ~bench:(Option.value ~default:"BENCHMARK.json" (opt a "--bench"))
            ~untraced ~traced
        in
        if not (names_ok && all_correct untraced && all_correct traced) then exit 1;
        print_endline "smoke: ok"
      end
      else begin
        let records =
          run_suite ~seed ~seconds:(float_opt a "--seconds" default_seconds)
            ~traced:(has a "--traced") ~smoke:false ~out
        in
        print_records records;
        if not (all_correct records) then exit 1
      end
  | "spread" :: rest ->
      let a = parse ~flags:[] ~opts:[ "--runs"; "--seed"; "--seconds"; "--out"; "--bench" ] rest in
      spread_cmd ~runs:(int_opt a "--runs" 3) ~seed:(int_opt a "--seed" 1)
        ~seconds:(float_opt a "--seconds" default_seconds)
        ~out:(Option.value ~default:"perf-out/spread" (opt a "--out"))
        ~bench:(Option.value ~default:"BENCHMARK.json" (opt a "--bench"))
  | "compare" :: rest -> (
      let a = parse ~flags:[] ~opts:[ "--base"; "--cand"; "--bench" ] rest in
      match (opt a "--base", opt a "--cand") with
      | Some base, Some cand ->
          compare_cmd ~base ~cand
            ~bench:(Option.value ~default:"BENCHMARK.json" (opt a "--bench"))
      | _ -> die "compare needs --base DIR and --cand DIR")
  | _ -> die "usage: main.exe (workload | run | spread | compare) [options]; see perf/README.md"
