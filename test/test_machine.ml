(* Machine-model tests: cache simulator behaviour, interpreter checks,
   footprint/traffic accounting, and qualitative properties of the
   CPU/GPU/NPU models (fusion reduces traffic; lost parallelism costs;
   more threads never hurt). *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Cache simulator                                                     *)
(* ------------------------------------------------------------------ *)

let tiny_cache () =
  Cache.create
    ~levels:
      [ { Cache.name = "L1"; size_bytes = 256; line_bytes = 64; assoc = 2; latency = 1 } ]
    ~dram_latency:100

let test_cache_hit_miss () =
  let c = tiny_cache () in
  let lat1 = Cache.access c ~addr:0 ~write:false in
  let lat2 = Cache.access c ~addr:4 ~write:false in
  check int "cold miss" 101 lat1;
  check int "same line hits" 1 lat2;
  match Cache.stats c with
  | [ l1 ] ->
      check int "one miss" 1 l1.Cache.misses;
      check int "one hit" 1 l1.Cache.hits
  | _ -> Alcotest.fail "one level expected"

let test_cache_lru () =
  let c = tiny_cache () in
  (* 2 sets x 2 ways of 64B lines; addresses mapping to set 0:
     line numbers 0, 2, 4 -> tags 0, 1, 2 *)
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:128 ~write:false);
  ignore (Cache.access c ~addr:0 ~write:false);
  (* set 0 holds lines {0,128}, 0 most recent: inserting 256 evicts 128 *)
  ignore (Cache.access c ~addr:256 ~write:false);
  let lat0 = Cache.access c ~addr:0 ~write:false in
  check int "LRU kept the recent line" 1 lat0;
  let lat128 = Cache.access c ~addr:128 ~write:false in
  check int "LRU evicted the old line" 101 lat128

let test_cache_reset () =
  let c = tiny_cache () in
  ignore (Cache.access c ~addr:0 ~write:false);
  Cache.reset c;
  check int "dram reset" 0 (Cache.dram_accesses c);
  let lat = Cache.access c ~addr:0 ~write:false in
  check int "cold again" 101 lat

(* A fixed pseudo-random address trace (LCG, seeded): the same accesses
   replayed against every hierarchy under test. *)
let fixed_trace =
  let state = ref 12345 in
  List.init 4000 (fun _ ->
      state := (!state * 1103515245 + 12347) land 0x3FFFFFFF;
      !state mod 16384)

let replay cache =
  List.iter (fun addr -> ignore (Cache.access cache ~addr ~write:false)) fixed_trace

let test_cache_conservation () =
  (* Every access either hits or misses at each level, and an inclusive
     hierarchy forwards exactly its misses to the level below. *)
  let c = Cache.xeon_like () in
  replay c;
  let expected = ref (List.length fixed_trace) in
  List.iter
    (fun (l : Cache.level_stats) ->
      check int
        (Printf.sprintf "%s hits+misses = accesses reaching it" l.Cache.level)
        !expected (l.Cache.hits + l.Cache.misses);
      expected := l.Cache.misses)
    (Cache.stats c);
  check int "DRAM sees the last level's misses" !expected (Cache.dram_accesses c)

(* Cache totals reach Obs once per run, through Cache.publish: with Obs
   on, one profile leaves counters equal to the report's totals and to
   the interpreter's access count, and no zero-valued name; with Obs
   off it leaves no cache counter at all. *)
let test_cache_publish () =
  let p = (Registry.find "conv2d").Registry.small () in
  let ast = (Exp_util.ours ~target:Core.Pipeline.Cpu p).Exp_util.ast in
  let cache_counters () =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"cache." name)
      (Obs.counters_alist ())
  in
  Obs.reset ();
  Obs.enable ();
  let r = Cpu_model.profile p ast in
  Obs.disable ();
  check int "cache.accesses = interp.reads + interp.writes"
    (Obs.counter_value "interp.reads" + Obs.counter_value "interp.writes")
    (Obs.counter_value "cache.accesses");
  List.iter
    (fun (l : Cache.level_stats) ->
      let counter metric =
        Obs.counter_value (Printf.sprintf "cache.%s.%s" l.Cache.level metric)
      in
      check int (l.Cache.level ^ " hits") l.Cache.hits (counter "hits");
      check int (l.Cache.level ^ " misses") l.Cache.misses (counter "misses"))
    r.Cpu_model.cache;
  check int "cache.dram" r.Cpu_model.dram (Obs.counter_value "cache.dram");
  check bool "cache counters recorded" true (cache_counters () <> []);
  List.iter
    (fun (name, v) -> check bool (name ^ " is non-zero") true (v > 0))
    (cache_counters ());
  Obs.reset ();
  ignore (Cpu_model.profile p ast);
  check int "no cache counter with Obs off" 0 (List.length (cache_counters ()));
  Obs.enable ()

let test_cache_miss_monotone () =
  (* Shrinking an LRU cache by dropping ways (fixed set count) can only
     lose residency — the stack/inclusion property — so misses on the
     same trace are monotone nondecreasing as capacity shrinks. *)
  let misses_at assoc =
    let c =
      Cache.create
        ~levels:
          [ { Cache.name = "L1"; size_bytes = 64 * 16 * assoc; line_bytes = 64;
              assoc; latency = 1 }
          ]
        ~dram_latency:100
    in
    replay c;
    match Cache.stats c with
    | [ l1 ] -> l1.Cache.misses
    | _ -> Alcotest.fail "one level expected"
  in
  let ms = List.map misses_at [ 8; 4; 2; 1 ] in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check bool
    (Printf.sprintf "misses nondecreasing as cache shrinks (%s)"
       (String.concat " <= " (List.map string_of_int ms)))
    true (monotone ms);
  check bool "smallest cache strictly worse than largest" true
    (List.nth ms 3 > List.nth ms 0)


(* The simulator against a reference written here: each set of each
   level is a most-recent-first list of at most [assoc] tags, a miss
   installs the line at every level it reaches, and the latency is the
   sum of the levels probed (plus DRAM when all miss). *)
let test_cache_reference_lru () =
  let levels =
    List.map
      (fun (name, kib, assoc, latency) ->
        { Cache.name; size_bytes = kib * 1024; line_bytes = 64; assoc; latency })
      [ ("L1", 2, 4, 4); ("L2", 16, 8, 14); ("L3", 64, 16, 50) ]
  in
  let c = Cache.create ~levels ~dram_latency:200 in
  let model =
    List.map
      (fun (l : Cache.level_config) ->
        let n_sets = l.Cache.size_bytes / (l.Cache.line_bytes * l.Cache.assoc) in
        (l, n_sets, Array.make n_sets [], ref 0, ref 0))
      levels
  in
  let dram = ref 0 in
  let model_access addr =
    let rec go = function
      | [] ->
          incr dram;
          200
      | ((l : Cache.level_config), n_sets, sets, hits, misses) :: rest ->
          let line = addr / l.Cache.line_bytes in
          let set = line mod n_sets and tag = line / n_sets in
          let ways = sets.(set) in
          let others = List.filter (( <> ) tag) ways in
          if List.mem tag ways then begin
            incr hits;
            sets.(set) <- tag :: others;
            l.Cache.latency
          end
          else begin
            incr misses;
            sets.(set) <- List.filteri (fun i _ -> i < l.Cache.assoc) (tag :: ways);
            l.Cache.latency + go rest
          end
    in
    go model
  in
  (* half short strides from the previous address, half anywhere in
     twice the L3 capacity: hits and misses at every level *)
  let state = ref 2024 and addr = ref 0 in
  for i = 1 to 10_000 do
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (addr :=
       if (!state lsr 20) land 1 = 0 then !addr + (4 * ((!state lsr 16) land 15))
       else (!state lsr 4) mod (128 * 1024));
    let want = model_access !addr in
    let got = Cache.access c ~addr:!addr ~write:(i land 3 = 0) in
    if got <> want then
      Alcotest.failf "access %d (addr %d): latency %d, reference %d" i !addr got want
  done;
  List.iter2
    (fun (s : Cache.level_stats) ((l : Cache.level_config), _, _, hits, misses) ->
      check bool (l.Cache.name ^ " sees hits and misses") true (!hits > 0 && !misses > 0);
      check int (l.Cache.name ^ " hits") !hits s.Cache.hits;
      check int (l.Cache.name ^ " misses") !misses s.Cache.misses)
    (Cache.stats c) model;
  check int "DRAM" !dram (Cache.dram_accesses c)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let test_interp_bounds () =
  let p = Conv2d.build ~h:4 ~w:4 () in
  (* hand-build an AST calling S0 out of bounds *)
  let bad = Ast.Call { stmt = "S0"; args = [ Ast.Int 7; Ast.Int 0 ] } in
  let mem = Interp.alloc p in
  (match Interp.run p bad mem with
  | exception Invalid_argument msg ->
      check bool "names the array" true
        (String.length msg > 0 && String.sub msg 0 6 = "Interp")
  | _ -> Alcotest.fail "expected out-of-bounds failure");
  (* unknown statement *)
  match Interp.run p (Ast.Call { stmt = "nope"; args = [] }) mem with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected unknown-statement failure"

let test_interp_guard () =
  let p = Equake.build ~size:Equake.Test () in
  let deps = Deps.compute p in
  let ast =
    Gen.generate p
      (Build_tree.initial_tree p
         (Fusion.schedule p ~deps ~target_parallelism:1 Fusion.Minfuse))
  in
  let mem = Interp.alloc p in
  let n = Equake.size_nodes Equake.Test in
  let executed = Harness.instances_per_stmt p ast mem "rupd" in
  (* the dynamic guard executes strictly fewer instances than the affine
     superset, and at least the minimum row length *)
  check bool "guard prunes" true (executed < n * 16);
  check bool "guard keeps short rows" true (executed >= n * 4)

(* The interpreter against OCaml, not against itself: 2mm's naive code
   leaves TMP and D as this loop nest over the same fill does. *)
let test_interp_matches_ocaml () =
  let p = (Registry.find "2mm").Registry.small () in
  let n = 20 in
  let got = Cpu_model.run_to_memory p (Exp_util.naive p).Exp_util.ast in
  let want = Interp.alloc p in
  Cpu_model.deterministic_fill p want;
  let arr = Interp.read_array want in
  let a = arr "A" and b = arr "B" and c = arr "C" and tmp = arr "TMP" and d = arr "D" in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      tmp.((i * n) + j) <- 0.0;
      for k = 0 to n - 1 do
        tmp.((i * n) + j) <-
          tmp.((i * n) + j) +. (1.5 *. a.((i * n) + k) *. b.((k * n) + j))
      done
    done
  done;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      d.((i * n) + j) <- 1.2 *. d.((i * n) + j);
      for k = 0 to n - 1 do
        d.((i * n) + j) <- d.((i * n) + j) +. (tmp.((i * n) + k) *. c.((k * n) + j))
      done
    done
  done;
  check bool "TMP as the loop nest computes it" true (Interp.arrays_equal got want "TMP");
  check bool "D as the loop nest computes it" true (Interp.arrays_equal got want "D")

(* The hook contract: per instance, every read fires before the one
   write, in the statement's read order; a retained [inst] keeps its
   values; [addr] is the array's cache-line-aligned base (arrays laid
   out in declaration order) plus four bytes per cell. *)
let test_interp_hook_contract () =
  let p = (Registry.find "conv2d").Registry.small () in
  let ast = (Exp_util.ours ~tile:4 ~target:Core.Pipeline.Cpu p).Exp_util.ast in
  let bases = Hashtbl.create 8 in
  ignore
    (List.fold_left
       (fun next (a : Prog.array_decl) ->
         Hashtbl.replace bases a.Prog.array_name next;
         let cells = List.fold_left ( * ) 1 (Prog.array_extent p a.Prog.array_name) in
         next + ((cells * 4) + 63) / 64 * 64)
       0 p.Prog.arrays);
  let events = ref [] in
  let hook ~kernel:_ ~stmt ~inst ~array ~cell ~addr ~write =
    check int "addr = base + 4 * cell" (Hashtbl.find bases array + (4 * cell)) addr;
    events := (stmt, inst, Array.copy inst, array, write) :: !events
  in
  let stats = Interp.run ~hook p ast (Interp.alloc p) in
  (* split into instances: each ends at its write *)
  let rec instances acc cur = function
    | [] ->
        check bool "the last event is a write" true (cur = []);
        List.rev acc
    | ((_, _, _, _, write) as e) :: rest ->
        if write then instances (List.rev (e :: cur) :: acc) [] rest
        else instances acc (e :: cur) rest
  in
  let insts = instances [] [] (List.rev !events) in
  check int "one write per instance" stats.Interp.instances (List.length insts);
  let prev = ref [||] in
  List.iter
    (fun evs ->
      let stmt, inst, _, _, _ = List.hd evs in
      let s = Prog.find_stmt p stmt in
      check bool "one statement instance" true
        (List.for_all (fun (st, i, _, _, _) -> st = stmt && i == inst) evs);
      check bool "a fresh inst per instance" true (inst != !prev);
      prev := inst;
      check (Alcotest.list Alcotest.string) (stmt ^ " reads in order, then its write")
        (List.map
           (fun (a : Prog.access) -> a.Prog.array)
           (s.Prog.reads @ [ s.Prog.write ]))
        (List.map (fun (_, _, _, a, _) -> a) evs))
    insts;
  check bool "retained inst arrays keep their values" true
    (List.for_all (fun (_, inst, copy, _, _) -> inst = copy) !events)

let s0_call args = Ast.Call { stmt = "S0"; args }

let s0_for var lo hi body =
  Ast.For { var; lb = Ast.Int lo; ub = Ast.Int hi; coincident = false; body }

(* The instances a run executes, as their iteration vectors. *)
let run_insts ?(p = Conv2d.build ~h:4 ~w:4 ()) ast =
  let insts = ref [] in
  let hook ~kernel:_ ~stmt:_ ~inst ~array:_ ~cell:_ ~addr:_ ~write =
    if write then insts := Array.to_list inst :: !insts
  in
  ignore (Interp.run ~hook p ast (Interp.alloc p));
  List.rev !insts

let int_lists = Alcotest.(list (list int))

(* A nested loop that reuses a name reads the inner binding; after it,
   the outer binding is back. *)
let test_interp_shadowing () =
  check int_lists "inner binding, then the outer one" [ [ 2; 1 ]; [ 0; 3 ] ]
    (run_insts
       (s0_for "i" 0 0
          (Ast.Block
             [ s0_for "i" 2 2 (s0_call [ Ast.Var "i"; Ast.Int 1 ]);
               s0_call [ Ast.Var "i"; Ast.Int 3 ]
             ])))

(* A tile runner stages a body once and runs it under each item's
   bindings: the same physical body under two environments writes two
   cells. *)
let test_tile_runner_envs () =
  let p = Conv2d.build ~h:4 ~w:4 () in
  let cells = ref [] in
  let hook ~kernel:_ ~stmt:_ ~inst:_ ~array:_ ~cell ~addr:_ ~write =
    if write then cells := cell :: !cells
  in
  let stats, exec = Interp.tile_runner ~hook p (Interp.alloc p) in
  let body = s0_call [ Ast.Var "i"; Ast.Var "j" ] in
  exec ~env:[ ("j", 1); ("i", 2) ] body;
  exec ~env:[ ("j", 3); ("i", 0) ] body;
  check (Alcotest.list int) "cells (2,1) then (0,3)" [ 9; 3 ] (List.rev !cells);
  check int "two instances" 2 stats.Interp.instances

(* Errors raise when the offending instance runs, with the messages of
   the contract; code that never runs raises nothing. *)
let test_interp_errors_at_run () =
  let p = Conv2d.build ~h:4 ~w:4 () in
  let s0 = Prog.find_stmt p "S0" in
  let p_arity =
    { p with
      Prog.stmts =
        [ { s0 with
            Prog.write =
              { s0.Prog.write with Prog.indices = [ List.hd s0.Prog.write.Prog.indices ] }
          }
        ]
    }
  in
  let cases =
    [ (p, s0_call [ Ast.Var "nope"; Ast.Int 0 ], "eval_expr: unbound loop var nope");
      ( p,
        s0_call [ Ast.Int 7; Ast.Int 0 ],
        "Interp: out of bounds on A dim 0: 7 (extent 4)" );
      (p, Ast.Call { stmt = "nope"; args = [] }, "Interp: unknown statement nope");
      (p_arity, s0_call [ Ast.Int 0; Ast.Int 0 ], "Interp: arity mismatch on A")
    ]
  in
  List.iter
    (fun (p, code, msg) ->
      check int_lists (msg ^ ": not when the branch is dead") []
        (run_insts ~p (Ast.If ([ Ast.Int (-1) ], code)));
      check int_lists (msg ^ ": not in an empty loop") []
        (run_insts ~p (s0_for "x" 1 0 code));
      match run_insts ~p (Ast.If ([ Ast.Int 0 ], code)) with
      | exception Invalid_argument m -> check Alcotest.string "message" msg m
      | _ -> Alcotest.failf "expected %s" msg)
    cases

let test_fill_deterministic () =
  let p = Conv2d.build ~h:8 ~w:8 () in
  let m1 = Cpu_model.run_to_memory p (Ast.Nop) in
  let m2 = Cpu_model.run_to_memory p (Ast.Nop) in
  check bool "same seed, same data" true (Interp.arrays_equal m1 m2 "A")

(* ------------------------------------------------------------------ *)
(* Footprints and traffic                                              *)
(* ------------------------------------------------------------------ *)

let conv16 = Conv2d.build ~h:16 ~w:16 ()

let compiled16 = Core.Pipeline.run ~target:Core.Pipeline.Cpu ~tile_size:4 conv16

let test_cluster_staging () =
  match Footprints.clusters_of_compiled compiled16 with
  | [ c ] ->
      check bool "A staged on-chip" true (List.mem "A" c.Footprints.staged_arrays);
      (* 16 tiles of 4x4 over the 14x14 output *)
      check int "tiles" 16 c.Footprints.tile_count
  | cs -> Alcotest.failf "expected one cluster, got %d" (List.length cs)

let test_traffic_rules () =
  match Footprints.clusters_of_compiled compiled16 with
  | [ c ] ->
      let t = Footprints.cluster_traffic conv16 c in
      (* writes: only the live-out C (14x14 elements, 4 bytes) *)
      check int "write bytes" (14 * 14 * 4) t.Footprints.write_bytes;
      (* reads: A is staged (free); B and the original A image are read
         per tile; C's accumulator reads are intra-cluster (free) *)
      check bool "read bytes positive" true (t.Footprints.read_bytes > 0)
  | _ -> Alcotest.fail "expected one cluster"

let test_fusion_reduces_traffic () =
  let unfused =
    Core.Pipeline.run_heuristic ~tile_size:4 ~target:Core.Pipeline.Cpu
      Fusion.Minfuse conv16
  in
  let cs_unfused = Footprints.clusters_of_baseline ~tile_size:4 unfused in
  let total cs =
    let t = Footprints.program_traffic conv16 cs in
    t.Footprints.read_bytes + t.Footprints.write_bytes
  in
  check bool "fusion reduces off-chip traffic" true
    (total (Footprints.clusters_of_compiled compiled16) < total cs_unfused)

(* The modeled instance count against what the generated code runs,
   for every registry workload at tile 8 under both compile flows. They
   agree except in these cases, pinned as (modeled, executed): equake's
   dynamic while loop is counted at its static bound, and the model
   counts recomputation in overlapped tiles that the code does not
   execute. *)
let instance_gaps =
  [ (("equake", "ours"), (86_016, 59_376));
    (("equake", "smartfuse"), (86_016, 59_376));
    (("harris", "ours"), (13_444, 12_336));
    (("unsharp_mask", "ours"), (3_696, 3_584));
    (("camera_pipeline", "ours"), (9_803, 9_652));
    (("jacobi_unrolled", "ours"), (228, 222))
  ]

let test_modeled_instances () =
  List.iter
    (fun (e : Registry.entry) ->
      let p = e.Registry.small () in
      List.iter
        (fun v ->
          let modeled =
            List.fold_left
              (fun acc c ->
                List.fold_left
                  (fun acc (_, n) -> acc + n)
                  acc (Footprints.stmt_instances c))
              0 (Exp_util.clusters p v)
          in
          let mem = Interp.alloc p in
          Cpu_model.deterministic_fill p mem;
          let executed = (Interp.run p v.Exp_util.ast mem).Interp.instances in
          let case = (e.Registry.reg_name, v.Exp_util.ver_name) in
          let name = e.Registry.reg_name ^ " " ^ v.Exp_util.ver_name in
          match List.assoc_opt case instance_gaps with
          | Some (m, x) ->
              check int (name ^ " modeled") m modeled;
              check int (name ^ " executed") x executed
          | None -> check int (name ^ " modeled = executed") executed modeled)
        [ Exp_util.ours ~tile:8 ~target:Core.Pipeline.Cpu p;
          Exp_util.heuristic ~tile:8 ~target:Core.Pipeline.Cpu Fusion.Smartfuse p
        ])
    Registry.all

(* ------------------------------------------------------------------ *)
(* CPU model properties                                                *)
(* ------------------------------------------------------------------ *)

let test_threads_monotone () =
  let p = Polymage.unsharp_mask ~h:64 ~w:64 () in
  let v = Exp_util.ours ~tile:8 ~target:Core.Pipeline.Cpu p in
  let t1 = Exp_util.cpu_time_ms p v ~threads:1 in
  let t4 = Exp_util.cpu_time_ms p v ~threads:4 in
  let t32 = Exp_util.cpu_time_ms p v ~threads:32 in
  check bool "4 threads faster than 1" true (t4 < t1);
  check bool "32 threads no slower than 4" true (t32 <= t4)

let test_vectorize_override () =
  let p = Polybench.gemver ~n:64 () in
  let v = Exp_util.naive p in
  let seq = Exp_util.cpu_time_ms ~vectorize:false p v ~threads:1 in
  let vec = Exp_util.cpu_time_ms ~vectorize:true p v ~threads:1 in
  check bool "vectorization helps" true (vec < seq)

(* ------------------------------------------------------------------ *)
(* GPU / NPU model properties                                          *)
(* ------------------------------------------------------------------ *)

let test_gpu_fusion_wins () =
  let p = Polymage.unsharp_mask ~h:128 ~w:128 () in
  let minf = Exp_util.heuristic ~target:Core.Pipeline.Gpu Fusion.Minfuse p in
  let our = Exp_util.ours ~tile:16 ~target:Core.Pipeline.Gpu p in
  check bool "fused kernel beats minfuse" true
    (Exp_util.gpu_time_ms p our < Exp_util.gpu_time_ms p minf)

let test_npu_conv_bn_fusion () =
  let b = List.hd (Resnet.default_blocks ()) in
  let p = Resnet.layer b in
  let time v =
    Npu_model.time_ms Npu_model.ascend910 p ~kind_of:Resnet.unit_kind
      (Exp_util.clusters p v)
  in
  let smart =
    Exp_util.heuristic ~fuse_reductions:false ~target:Core.Pipeline.Npu
      Fusion.Smartfuse p
  in
  let our = Exp_util.ours ~fuse_reductions:false ~tile:8 ~target:Core.Pipeline.Npu p in
  let s = time smart and o = time our in
  check bool "fusing conv+bn avoids the DDR round trip" true (o < s);
  check bool "speedup within a plausible band" true (s /. o > 1.05 && s /. o < 4.0)

let () =
  Harness.run "machine"
    [ ( "cache",
        [ Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU" `Quick test_cache_lru;
          Alcotest.test_case "reset" `Quick test_cache_reset;
          Alcotest.test_case "conservation" `Quick test_cache_conservation;
          Alcotest.test_case "miss monotonicity" `Quick test_cache_miss_monotone;
          Alcotest.test_case "publish once per run" `Quick test_cache_publish;
          Alcotest.test_case "matches a list LRU model" `Quick test_cache_reference_lru
        ] );
      ( "interp",
        [ Alcotest.test_case "bounds checking" `Quick test_interp_bounds;
          Alcotest.test_case "dynamic guard" `Quick test_interp_guard;
          Alcotest.test_case "deterministic fill" `Quick test_fill_deterministic;
          Alcotest.test_case "2mm matches OCaml loops" `Quick test_interp_matches_ocaml;
          Alcotest.test_case "hook contract" `Quick test_interp_hook_contract;
          Alcotest.test_case "shadowed loop variable" `Quick test_interp_shadowing;
          Alcotest.test_case "tile runner, two environments" `Quick test_tile_runner_envs;
          Alcotest.test_case "errors raise when run" `Quick test_interp_errors_at_run
        ] );
      ( "footprints",
        [ Alcotest.test_case "staging" `Quick test_cluster_staging;
          Alcotest.test_case "traffic rules" `Quick test_traffic_rules;
          Alcotest.test_case "fusion reduces traffic" `Quick test_fusion_reduces_traffic;
          Alcotest.test_case "modeled vs executed instances" `Slow
            test_modeled_instances
        ] );
      ( "cpu-model",
        [ Alcotest.test_case "thread monotonicity" `Quick test_threads_monotone;
          Alcotest.test_case "vectorize override" `Quick test_vectorize_override
        ] );
      ( "gpu-npu",
        [ Alcotest.test_case "gpu fusion wins" `Slow test_gpu_fusion_wins;
          Alcotest.test_case "npu conv+bn" `Slow test_npu_conv_bn_fusion
        ] )
    ]
