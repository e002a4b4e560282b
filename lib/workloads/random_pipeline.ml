open Wl

type config = {
  max_stages : int;
  max_extent : int;
  allow_reductions : bool;
  allow_sampling : bool;
  two_d : bool;
}

let default_config =
  { max_stages = 6;
    max_extent = 24;
    allow_reductions = true;
    allow_sampling = true;
    two_d = true
  }

(* A deterministic LCG so failures reproduce from the seed alone. *)
type rng = { mutable state : int }

let rand rng bound =
  rng.state <- ((rng.state * 1103515245) + 12345) land max_int;
  (rng.state lsr 17) mod bound

let pick rng l = List.nth l (rand rng (List.length l))

(* ------------------------------------------------------------------ *)
(* Pipeline specs                                                      *)
(* ------------------------------------------------------------------ *)

(* The generator is split in two: [spec_of_seed] makes every random
   decision and records it as a [spec]; [build_spec] deterministically
   lowers a spec to a program. [generate] composes the two, so the
   seeded behavior is unchanged — and the fuzz shrinker can minimize a
   failing spec (drop stages, reduce extents/radii, 2D -> 1D) while
   re-running the failure predicate on real rebuilt programs. *)

type stage_kind =
  | Pointwise of string  (** second source array *)
  | Stencil of int  (** radius *)
  | Down of int  (** alignment *)
  | Up
  | Reduce of int  (** radius *)

type stage = { sg_id : int; sg_kind : stage_kind; sg_src : string }

type spec = {
  sp_name : string;
  sp_nd : int;  (** 1 or 2 *)
  sp_input : int;  (** input extent, uniform across dims *)
  sp_stages : stage list;  (** the last stage's array is live-out *)
}

(* Per-array uniform extent, derived along the chain; [None] when some
   stage is infeasible (unknown source or non-positive extent). *)
let spec_extents sp =
  let derive exts st =
    match exts with
    | None -> None
    | Some exts -> (
        let find a = List.assoc_opt a exts in
        match find st.sg_src with
        | None -> None
        | Some e ->
            let out =
              match st.sg_kind with
              | Pointwise src2 -> (
                  match find src2 with Some e2 -> Some (min e e2) | None -> None)
              | Stencil r -> Some (e - r)
              | Down a -> Some ((e - a) / 2)
              | Up -> Some (e * 2)
              | Reduce r -> Some (e - r)
            in
            (match out with
            | Some o when o >= 1 ->
                Some ((Printf.sprintf "A%d" st.sg_id, o) :: exts)
            | _ -> None))
  in
  match List.fold_left derive (Some [ ("IN", sp.sp_input) ]) sp.sp_stages with
  | Some exts -> Some (List.rev exts)
  | None -> None

let spec_valid sp = sp.sp_stages <> [] && spec_extents sp <> None

let build_spec sp =
  let nd = sp.sp_nd in
  let exts =
    match spec_extents sp with
    | Some e -> e
    | None -> invalid_arg "Random_pipeline.build_spec: infeasible spec"
  in
  let ext_of a = List.assoc a exts in
  let t = Pipe.create sp.sp_name ~params:[] in
  Pipe.input t "IN" (List.init nd (fun _ -> cst sp.sp_input));
  let dims_idx = List.init nd (fun d -> d) in
  List.iter
    (fun st ->
      let name = Printf.sprintf "s%d" st.sg_id in
      let out = Printf.sprintf "A%d" st.sg_id in
      let kf = float_of_int (st.sg_id + 1) in
      let ext = ext_of out in
      let extents = List.init nd (fun _ -> cst ext) in
      match st.sg_kind with
      | Pointwise src2 ->
          Pipe.stage t ~name ~out ~extents
            ~reads:
              [ (st.sg_src, List.map (fun d -> idx (dim d)) dims_idx);
                (src2, List.map (fun d -> idx (dim d)) dims_idx)
              ]
            ~ops:2
            ~compute:(fun v -> (v.(0) *. 0.5) +. (v.(1) *. 0.25) +. kf)
            ()
      | Stencil r ->
          let taps =
            List.init (r + 1) (fun o ->
                (st.sg_src, List.map (fun d -> idx (dim d +$ cst o)) dims_idx))
          in
          Pipe.stage t ~name ~out ~extents ~reads:taps ~ops:(r + 1)
            ~compute:(fun v ->
              Array.fold_left ( +. ) kf v /. float_of_int (r + 2))
            ()
      | Down a ->
          Pipe.stage t ~name ~out ~extents
            ~reads:
              [ ( st.sg_src,
                  List.map (fun d -> idx ((2 *$ dim d) +$ cst a)) dims_idx )
              ]
            ~ops:1
            ~compute:(fun v -> v.(0) +. kf)
            ()
      | Up ->
          Pipe.stage t ~name ~out ~extents
            ~reads:[ (st.sg_src, List.map (fun d -> idx ~div:2 (dim d)) dims_idx) ]
            ~ops:1
            ~compute:(fun v -> v.(0) -. kf)
            ()
      | Reduce r ->
          Pipe.reduction t ~name ~out ~extents
            ~red_dims:[ ("rr", cst r) ]
            ~reads:
              [ ( st.sg_src,
                  List.mapi
                    (fun i d ->
                      if i = 0 then idx (dim d +$ dim nd) else idx (dim d))
                    dims_idx )
              ]
            ~ops:2
            ~combine:(fun v -> v.(0) +. (v.(1) *. 0.125))
            ())
    sp.sp_stages;
  let live_out =
    match List.rev sp.sp_stages with
    | last :: _ -> Printf.sprintf "A%d" last.sg_id
    | [] -> invalid_arg "Random_pipeline.build_spec: empty spec"
  in
  Pipe.finish t ~live_out:[ live_out ]

type produced = { arr_name : string; ext : int array }

(* Replays exactly the random decisions of the pre-spec generator (same
   rng call order), so [generate] is bit-identical seed for seed. *)
let spec_of_seed cfg ~seed =
  assert (cfg.max_stages >= 2);
  let rng = { state = (seed * 2654435761) lor 1 } in
  let nd = if cfg.two_d then 2 else 1 in
  let e0 = 6 + rand rng (max 1 (cfg.max_extent - 5)) in
  let input = { arr_name = "IN"; ext = Array.make nd e0 } in
  let produced = ref [ input ] in
  let n_stages = 2 + rand rng (cfg.max_stages - 1) in
  let stage_kinds =
    [ `Pointwise; `Pointwise; `Stencil; `Stencil ]
    @ (if cfg.allow_sampling then [ `Down; `Up ] else [])
    @ if cfg.allow_reductions then [ `Reduce ] else []
  in
  let stages = ref [] in
  for k = 0 to n_stages - 1 do
    let src = pick rng !produced in
    let out = Printf.sprintf "A%d" k in
    let kind =
      (* sampling needs room to halve/double; stencils need margin *)
      let usable =
        List.filter
          (fun kd ->
            match kd with
            | `Down -> Array.for_all (fun e -> e >= 12) src.ext
            | `Stencil | `Reduce -> Array.for_all (fun e -> e >= 8) src.ext
            | `Up -> Array.for_all (fun e -> e * 2 <= 2 * cfg.max_extent) src.ext
            | `Pointwise -> true)
          stage_kinds
      in
      pick rng usable
    in
    let sg_kind, ext =
      match kind with
      | `Pointwise ->
          (* one or two source arrays, zero offsets over the min extents *)
          let src2 = pick rng !produced in
          ( Pointwise src2.arr_name,
            Array.init nd (fun d -> min src.ext.(d) src2.ext.(d)) )
      | `Stencil ->
          let r = 1 + rand rng 2 in
          (Stencil r, Array.map (fun e -> e - r) src.ext)
      | `Down ->
          let a = rand rng 2 in
          (Down a, Array.map (fun e -> (e - a) / 2) src.ext)
      | `Up -> (Up, Array.map (fun e -> e * 2) src.ext)
      | `Reduce ->
          let r = 3 in
          (Reduce r, Array.map (fun e -> e - r) src.ext)
    in
    stages := { sg_id = k; sg_kind; sg_src = src.arr_name } :: !stages;
    produced := { arr_name = out; ext } :: !produced
  done;
  { sp_name = Printf.sprintf "fuzz%d" seed;
    sp_nd = nd;
    sp_input = e0;
    sp_stages = List.rev !stages
  }

let generate cfg ~seed = build_spec (spec_of_seed cfg ~seed)

let stage_kind_string = function
  | Pointwise src2 -> Printf.sprintf "Pointwise %S" src2
  | Stencil r -> Printf.sprintf "Stencil %d" r
  | Down a -> Printf.sprintf "Down %d" a
  | Up -> "Up"
  | Reduce r -> Printf.sprintf "Reduce %d" r

(* OCaml source form of a spec, for self-contained repro files. *)
let spec_to_ocaml sp =
  let stage st =
    Printf.sprintf
      "    { Random_pipeline.sg_id = %d; sg_kind = Random_pipeline.%s; \
       sg_src = %S }"
      st.sg_id (stage_kind_string st.sg_kind) st.sg_src
  in
  Printf.sprintf
    "{ Random_pipeline.sp_name = %S;\n  sp_nd = %d;\n  sp_input = %d;\n\
    \  sp_stages =\n  [\n%s\n  ] }"
    sp.sp_name sp.sp_nd sp.sp_input
    (String.concat ";\n" (List.map stage sp.sp_stages))

let describe (p : Prog.t) =
  let kinds =
    List.map
      (fun (s : Prog.stmt) ->
        Printf.sprintf "%s(%d reads, %d dims%s)" s.Prog.stmt_name
          (List.length s.Prog.reads)
          (Presburger.Bset.n_dims s.Prog.domain)
          (if s.Prog.reduction_dims > 0 then ", red" else ""))
      p.Prog.stmts
  in
  Printf.sprintf "%s: %s" p.Prog.prog_name (String.concat " ; " kinds)
