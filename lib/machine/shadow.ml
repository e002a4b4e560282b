(* Dynamic shadow validator: runs the reference (naive) AST and a
   candidate AST over identically-initialized memories, tagging every
   cell with the statement instances that wrote it, and checks during
   the candidate's interpretation that

   - no read observes a cell before its definition when the reference
     had defined it before its own reads (def-before-use);
   - a statement instance executed more than once (recomputation under
     overlapped tiles) stores the same value every time
     (single-assignment per instance, up to float tolerance);
   - every cell is only written by instances that also wrote it in the
     reference (no foreign writers);
   - every live-out cell the reference wrote is written by the
     candidate, with the same final writer instance (live-out
     coverage — the structural form of the seed-1057 failure, caught
     even when values coincidentally agree). *)

type violation = {
  sv_kind : string;
      (** "read-before-write" | "recompute-divergence" |
          "foreign-writer" | "liveout-missing" | "liveout-writer" *)
  sv_stmt : string;
  sv_inst : int array;
  sv_array : string;
  sv_cell : int;
  sv_detail : string;
}

type report = {
  sh_violations : violation list;
  sh_reads : int;  (** candidate reads checked *)
  sh_writes : int;  (** candidate writes checked *)
  sh_recomputed : int;  (** instance re-executions observed *)
}

let violation_string v =
  Printf.sprintf "%s: %s[%d] by %s[%s]%s" v.sv_kind v.sv_array v.sv_cell
    v.sv_stmt
    (String.concat "," (List.map string_of_int (Array.to_list v.sv_inst)))
    (if v.sv_detail = "" then "" else " — " ^ v.sv_detail)

(* Per-(array, cell) writer records. Cell counts in the test workloads
   are small, so plain hashtables keyed by (array, cell) suffice. *)
type cell_info = {
  mutable writers : (string * int array) list;  (** distinct instances *)
  mutable last : (string * int array) option;
}

let cell_key array cell = (array, cell)

(* Interpret [ast] over a freshly filled memory, recording every
   cell's writer instances and the cells read before any write. With
   [check] (the reference run's cells and read-before-write cells) the
   candidate's accesses are also checked as they happen. *)
let trace_run ?check (p : Prog.t) ast =
  let mem = Interp.alloc p in
  Cpu_model.deterministic_fill p mem;
  let cells : (string * int, cell_info) Hashtbl.t = Hashtbl.create 1024 in
  let read_undef : (string * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let written : (string * (string * int array), float) Hashtbl.t =
    Hashtbl.create 1024
  in
  let reads = ref 0 and writes = ref 0 and recomputed = ref 0 in
  let violations = ref [] in
  let violation kind ~stmt ~inst ~array ~cell detail =
    violations :=
      { sv_kind = kind;
        sv_stmt = stmt;
        sv_inst = inst;
        sv_array = array;
        sv_cell = cell;
        sv_detail = detail
      }
      :: !violations
  in
  let hook ~kernel:_ ~stmt ~inst ~array ~cell ~addr:_ ~write =
    let key = cell_key array cell in
    if write then begin
      incr writes;
      let value = (Interp.read_array mem array).(cell) in
      let info =
        match Hashtbl.find_opt cells key with
        | Some i -> i
        | None ->
            let i = { writers = []; last = None } in
            Hashtbl.replace cells key i;
            i
      in
      let who = (stmt, inst) in
      let wkey = (array, (stmt, inst)) in
      (match Hashtbl.find_opt written wkey with
      | Some prev ->
          incr recomputed;
          if Float.abs (prev -. value) > 1e-6 *. (1.0 +. Float.abs prev) then
            violation "recompute-divergence" ~stmt ~inst ~array ~cell
              (Printf.sprintf "stored %g then %g" prev value)
      | None -> Hashtbl.replace written wkey value);
      if not (List.mem who info.writers) then
        info.writers <- who :: info.writers;
      info.last <- Some who;
      match check with
      | Some (ref_cells, _) -> (
          (* candidate writers must be reference writers of the cell *)
          match Hashtbl.find_opt ref_cells key with
          | Some (ri : cell_info) when List.mem who ri.writers -> ()
          | _ ->
              violation "foreign-writer" ~stmt ~inst ~array ~cell
                "instance never wrote this cell in the reference order")
      | None -> ()
    end
    else begin
      incr reads;
      let defined = Hashtbl.mem cells key in
      if not defined then Hashtbl.replace read_undef key ();
      match check with
      | Some (ref_cells, ref_read_undef) ->
          if
            (not defined)
            && Hashtbl.mem ref_cells key
            && not (Hashtbl.mem ref_read_undef key)
          then
            violation "read-before-write" ~stmt ~inst ~array ~cell
              "reference defines this cell before any read"
      | None -> ()
    end
  in
  ignore (Interp.run ~hook p ast mem);
  ( mem,
    cells,
    read_undef,
    { sh_violations = List.rev !violations;
      sh_reads = !reads;
      sh_writes = !writes;
      sh_recomputed = !recomputed
    } )

let validate (p : Prog.t) ~ref_ast ~ast =
  Obs.span "verify.shadow" @@ fun () ->
  let ref_mem, ref_cells, ref_read_undef, _ = trace_run p ref_ast in
  let cand_mem, cand_cells, _, stats =
    trace_run ~check:(ref_cells, ref_read_undef) p ast
  in
  (* live-out coverage and final-writer agreement *)
  let liveout_violations =
    Hashtbl.fold
      (fun ((array, cell) as key) (ri : cell_info) acc ->
        if List.mem array p.Prog.live_out then
          match Hashtbl.find_opt cand_cells key with
          | None ->
              { sv_kind = "liveout-missing";
                sv_stmt =
                  (match ri.last with Some (s, _) -> s | None -> "?");
                sv_inst =
                  (match ri.last with Some (_, i) -> i | None -> [||]);
                sv_array = array;
                sv_cell = cell;
                sv_detail = "cell written by the reference, never by the \
                             candidate"
              }
              :: acc
          | Some ci ->
              if ci.last <> ri.last then
                { sv_kind = "liveout-writer";
                  sv_stmt =
                    (match ci.last with Some (s, _) -> s | None -> "?");
                  sv_inst =
                    (match ci.last with Some (_, i) -> i | None -> [||]);
                  sv_array = array;
                  sv_cell = cell;
                  sv_detail =
                    (match ri.last with
                    | Some (s, i) ->
                        Printf.sprintf "reference final writer is %s[%s]" s
                          (String.concat ","
                             (List.map string_of_int (Array.to_list i)))
                    | None -> "reference final writer differs")
                }
                :: acc
              else acc
        else acc)
      ref_cells []
  in
  let values_equal =
    List.for_all (fun a -> Interp.arrays_equal ref_mem cand_mem a) p.Prog.live_out
  in
  let value_violation =
    if values_equal then []
    else
      [ { sv_kind = "liveout-values";
          sv_stmt = "";
          sv_inst = [||];
          sv_array = String.concat "," p.Prog.live_out;
          sv_cell = -1;
          sv_detail = "live-out values differ from the reference run"
        }
      ]
  in
  { stats with
    sh_violations =
      stats.sh_violations @ liveout_violations @ value_violation
  }
