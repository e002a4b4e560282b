(* Greedy minimizer for failing random-pipeline specs.

   Given a spec whose lowered program makes [predicate] true (the
   caller encodes "this still reproduces the failure"), repeatedly try
   structure-reducing mutations — drop a stage, reduce the input
   extent, collapse 2D to 1D, shrink stencil/reduction radii and
   sampling alignment, merge a pointwise stage's two sources — keeping
   each mutation only when the spec stays feasible and the predicate
   still holds. The result is a local minimum: no single remaining
   mutation preserves the failure. *)

type outcome = {
  shrunk : Random_pipeline.spec;
  evals : int;  (** predicate evaluations spent *)
  rounds : int;
}

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

(* Candidate one-step reductions, cheapest structural win first. *)
let mutations (sp : Random_pipeline.spec) =
  let with_stages stages = { sp with Random_pipeline.sp_stages = stages } in
  let n = List.length sp.Random_pipeline.sp_stages in
  let drops =
    (* later stages first: dropping the live-out stage promotes its
       predecessor, which unwinds dead suffixes quickly *)
    List.init n (fun i -> with_stages (drop_nth sp.Random_pipeline.sp_stages (n - 1 - i)))
  in
  let to_1d =
    if sp.Random_pipeline.sp_nd > 1 then [ { sp with Random_pipeline.sp_nd = 1 } ]
    else []
  in
  let extents =
    List.filter_map
      (fun e ->
        if e < sp.Random_pipeline.sp_input then
          Some { sp with Random_pipeline.sp_input = e }
        else None)
      [ 6; sp.Random_pipeline.sp_input / 2; sp.Random_pipeline.sp_input - 1 ]
  in
  let stage_tweaks =
    List.concat
      (List.mapi
         (fun i (st : Random_pipeline.stage) ->
           let replace kind =
             with_stages
               (List.mapi
                  (fun j s ->
                    if j = i then { s with Random_pipeline.sg_kind = kind } else s)
                  sp.Random_pipeline.sp_stages)
           in
           match st.Random_pipeline.sg_kind with
           | Random_pipeline.Stencil r when r > 1 ->
               [ replace (Random_pipeline.Stencil 1) ]
           | Random_pipeline.Down a when a > 0 ->
               [ replace (Random_pipeline.Down 0) ]
           | Random_pipeline.Reduce r when r > 1 ->
               [ replace (Random_pipeline.Reduce 1) ]
           | Random_pipeline.Pointwise src2
             when src2 <> st.Random_pipeline.sg_src ->
               [ replace (Random_pipeline.Pointwise st.Random_pipeline.sg_src) ]
           | _ -> [])
         sp.Random_pipeline.sp_stages)
  in
  drops @ to_1d @ stage_tweaks @ extents

(* Bound on predicate evaluations: each one typically recompiles the
   program through a full flow. *)
let max_evals = 400

let shrink spec ~predicate =
  Obs.span "verify.shrink" @@ fun () ->
  let evals = ref 0 in
  let try_pred sp =
    if !evals >= max_evals then false
    else begin
      incr evals;
      Obs.count "verify.shrink_evals";
      Random_pipeline.spec_valid sp
      && (try predicate sp with _ -> false)
    end
  in
  let rounds = ref 0 in
  let current = ref spec in
  let progress = ref true in
  while !progress && !evals < max_evals do
    incr rounds;
    progress := false;
    let rec first_accepted = function
      | [] -> ()
      | cand :: rest ->
          if try_pred cand then begin
            current := cand;
            progress := true
          end
          else first_accepted rest
    in
    first_accepted (mutations !current)
  done;
  { shrunk = !current; evals = !evals; rounds = !rounds }

(* A self-contained OCaml repro file: rebuild the minimized program
   with [Random_pipeline.build_spec spec]. *)
let repro_ml ?seed ~note spec =
  let seed_line =
    match seed with
    | Some s -> Printf.sprintf "   Original generator seed: %d\n" s
    | None -> ""
  in
  Printf.sprintf
    "(* Minimized fuzz repro — %s\n%s\n\
    \   Rebuild the failing program with:\n\
    \     let prog = Random_pipeline.build_spec spec\n\
    \   and re-run the flows of test/test_fuzz.ml against it. *)\n\n\
     let spec =\n%s\n\n\
     let prog = Random_pipeline.build_spec spec\n\n\
     let () =\n\
    \  print_endline (Random_pipeline.describe prog)\n"
    note seed_line
    (Random_pipeline.spec_to_ocaml spec)
