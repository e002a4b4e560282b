(* The layer ledger of a traced run: op wall time split into per-layer
   self time.

   A span's self time is its duration minus the durations of the spans
   one level deeper that it encloses. Summed over every span inside the
   bench's op spans, self times add up to the op wall time exactly, so
   the ledger has no hidden remainder: what the bench itself spends
   shows as the self time of "bench.op".

   The spans are the ones the program already records plus the bench's
   own wrappers around each public call ("bench.<layer>.<call>"). The
   presburger library records counters but no spans, so its time is
   part of the self time of whichever span called into it. *)

(* The layer of a span: the lib/ directory of the module that records it. *)
let layer_of span =
  match String.split_on_char '.' span with
  | [ "bench"; "op" ] -> "bench"
  | "bench" :: layer :: _ -> layer
  | ("pipeline" | "tile_shapes" | "post_tiling") :: _ -> "core"
  | "deps" :: _ -> "poly_ir"
  | ("fusion" | "scheduler") :: _ -> "scheduler"
  | "codegen" :: _ -> "codegen"
  | "interp" :: _ -> "machine"
  | "runtime" :: _ -> "runtime"
  | "verify" :: _ -> "verify"
  | "tuner" :: _ -> "tuner"
  | _ -> "other"

let layers =
  [ "poly_ir"; "scheduler"; "core"; "codegen"; "machine"; "runtime"; "verify";
    "tuner"; "bench"; "other" ]

(* Self seconds per span name, over the subtrees of "bench.op" spans.
   Obs lists spans in completion order, so a span's children complete
   after its previous sibling and before it: one running sum of child
   durations per depth is enough. *)
let self_times (events : (string * float * float * int) list) =
  let self = Hashtbl.create 64 in
  let children = Hashtbl.create 16 in
  let child_sum d = Option.value ~default:0.0 (Hashtbl.find_opt children d) in
  let subtree = ref [] in
  List.iter
    (fun (name, _start, dur, depth) ->
      let s = dur -. child_sum (depth + 1) in
      Hashtbl.replace children (depth + 1) 0.0;
      Hashtbl.replace children depth (child_sum depth +. dur);
      subtree := (name, s) :: !subtree;
      if depth = 0 then begin
        if name = "bench.op" then
          List.iter
            (fun (n, s) ->
              Hashtbl.replace self n
                (s +. Option.value ~default:0.0 (Hashtbl.find_opt self n)))
            !subtree;
        subtree := []
      end)
    events;
  self

let span_self self name = Option.value ~default:0.0 (Hashtbl.find_opt self name)

let layer_self self layer =
  Hashtbl.fold (fun n s acc -> if layer_of n = layer then acc +. s else acc) self 0.0

(* Self seconds of the spans whose names start with [prefix]. *)
let prefix_self self prefix =
  Hashtbl.fold
    (fun n s acc -> if String.starts_with ~prefix n then acc +. s else acc)
    self 0.0
