(* Structured event log (see events.mli). A fixed-size ring keeps the
   newest events; [seq] keeps a global emission index so consumers can
   detect gaps after overflow. Timestamps share the Obs epoch so a
   merged Chrome trace lines spans and events up on one clock.

   Domain safety: the ring lives behind its own mutex. Lock order is
   Obs -> Events (Obs runs our reset hook while holding its lock); no
   code path here takes the Obs lock while holding ours — emit only
   calls lock-free Obs reads, and chrome_trace snapshots the two stores
   sequentially. *)

type value = Json_util.value = S of string | I of int | F of float | B of bool

type t = {
  seq : int;
  ts_s : float;
  dur_s : float;
  cat : string;
  name : string;
  args : (string * value) list;
}

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

let default_capacity = 65_536

let mu = Mutex.create ()

let with_lock f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let cap = ref default_capacity

let buf : t option array ref = ref [||]

let start = ref 0 (* index of the oldest retained event *)

let len = ref 0

let total = ref 0

let reset_unlocked () =
  buf := [||];
  start := 0;
  len := 0;
  total := 0

let reset () = with_lock reset_unlocked

(* Clear the ring atomically with the Obs registries, so a merged trace
   never pairs spans from after a reset with events from before it. *)
let () = Obs.on_reset reset_unlocked

let set_capacity n =
  with_lock (fun () ->
      cap := max 1 n;
      reset_unlocked ())

let emit ?ts_s ?(dur_s = 0.0) ?(cat = "event") name args =
  if Obs.is_enabled () then begin
    let ts = match ts_s with Some t -> t | None -> Obs.elapsed_s () in
    with_lock (fun () ->
        let e = { seq = !total; ts_s = ts; dur_s; cat; name; args } in
        if Array.length !buf <> !cap then begin
          buf := Array.make !cap None;
          start := 0;
          len := 0
        end;
        let b = !buf in
        if !len < !cap then begin
          b.((!start + !len) mod !cap) <- Some e;
          incr len
        end
        else begin
          b.(!start) <- Some e;
          start := (!start + 1) mod !cap
        end;
        incr total)
  end

let find e key = List.assoc_opt key e.args

let recorded () =
  with_lock (fun () ->
      let b = !buf in
      let n = Array.length b in
      let rec go i acc =
        if i < 0 then acc
        else
          match b.((!start + i) mod n) with
          | Some e -> go (i - 1) (e :: acc)
          | None -> go (i - 1) acc
      in
      if n = 0 then [] else go (!len - 1) [])

let emitted () = !total

let dropped () = !total - !len

let value_to_string = Json_util.value_to_string

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)
(* ------------------------------------------------------------------ *)

let float_repr = Json_util.float_repr

let value_json = Json_util.value_json

let event_json b (e : t) =
  Buffer.add_string b
    (Printf.sprintf "{\"seq\":%d,\"ts\":%s,\"dur\":%s,\"cat\":\"%s\",\"name\":\"%s\",\"args\":{"
       e.seq (float_repr e.ts_s) (float_repr e.dur_s) (Json_util.escape e.cat)
       (Json_util.escape e.name));
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%s" (Json_util.escape k) (value_json v)))
    e.args;
  Buffer.add_string b "}}"

let to_jsonl () =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      event_json b e;
      Buffer.add_char b '\n')
    (recorded ());
  Buffer.contents b

(* --- parsing --------------------------------------------------------- *)

(* Minimal JSON parser that keeps the raw token for numbers, so int and
   float payload values stay distinct ("5" vs "5.0"). *)
type jv = Jstr of string | Jnum of string | Jbool of bool | Jnull | Jobj of (string * jv) list | Jarr of jv list

exception Parse_error of string

let parse_json_line (s : string) : jv =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> incr pos
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
          incr pos;
          (match peek () with
          | Some '"' -> Buffer.add_char b '"'; incr pos
          | Some '\\' -> Buffer.add_char b '\\'; incr pos
          | Some '/' -> Buffer.add_char b '/'; incr pos
          | Some 'n' -> Buffer.add_char b '\n'; incr pos
          | Some 'r' -> Buffer.add_char b '\r'; incr pos
          | Some 't' -> Buffer.add_char b '\t'; incr pos
          | Some 'b' -> Buffer.add_char b '\b'; incr pos
          | Some 'f' -> Buffer.add_char b '\012'; incr pos
          | Some 'u' ->
              incr pos;
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
              | Some _ -> Buffer.add_char b '?'
              | None -> fail "bad \\u escape");
              pos := !pos + 4
          | _ -> fail "bad escape");
          go ()
      | Some c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstr (parse_string ())
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Jobj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                Jobj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Jarr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elems (v :: acc)
            | Some ']' ->
                incr pos;
                Jarr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
        end
    | Some 't' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
          pos := !pos + 4;
          Jbool true
        end
        else fail "bad literal"
    | Some 'f' ->
        if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
          pos := !pos + 5;
          Jbool false
        end
        else fail "bad literal"
    | Some 'n' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
          pos := !pos + 4;
          Jnull
        end
        else fail "bad literal"
    | Some ('0' .. '9' | '-') ->
        let first = !pos in
        let num_char = function
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        in
        while (match peek () with Some c -> num_char c | None -> false) do
          incr pos
        done;
        let text = String.sub s first (!pos - first) in
        if float_of_string_opt text = None then fail "bad number";
        Jnum text
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let value_of_jv = function
  | Jstr s -> Ok (S s)
  | Jbool b -> Ok (B b)
  | Jnum text -> (
      match int_of_string_opt text with
      | Some i -> Ok (I i)
      | None -> Ok (F (float_of_string text)))
  | _ -> Error "unsupported payload value"

let event_of_jv = function
  | Jobj fields ->
      let str k = match List.assoc_opt k fields with Some (Jstr s) -> Some s | _ -> None in
      let num k =
        match List.assoc_opt k fields with
        | Some (Jnum t) -> float_of_string_opt t
        | _ -> None
      in
      let args =
        match List.assoc_opt "args" fields with
        | Some (Jobj kvs) ->
            List.fold_right
              (fun (k, jv) acc ->
                match (acc, value_of_jv jv) with
                | Error _, _ -> acc
                | _, Error e -> Error e
                | Ok rest, Ok v -> Ok ((k, v) :: rest))
              kvs (Ok [])
        | Some _ -> Error "args is not an object"
        | None -> Ok []
      in
      (match (num "seq", num "ts", str "name", args) with
      | Some seq, Some ts, Some name, Ok args ->
          Ok
            { seq = int_of_float seq;
              ts_s = ts;
              dur_s = (match num "dur" with Some d -> d | None -> 0.0);
              cat = (match str "cat" with Some c -> c | None -> "event");
              name;
              args
            }
      | _, _, _, Error e -> Error e
      | _ -> Error "missing seq/ts/name")
  | _ -> Error "event line is not an object"

let of_jsonl text =
  let lines = String.split_on_char '\n' text in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let line = String.trim line in
        if line = "" then go (i + 1) acc rest
        else begin
          match
            try event_of_jv (parse_json_line line)
            with Parse_error m -> Error m
          with
          | Ok e -> go (i + 1) (e :: acc) rest
          | Error m -> Error (Printf.sprintf "line %d: %s" i m)
        end
  in
  go 1 [] lines

(* ------------------------------------------------------------------ *)
(* Chrome trace merge                                                  *)
(* ------------------------------------------------------------------ *)

(* Spans render on tid 1 exactly as in [Obs.chrome_trace]; structured
   events on tid 2 as instant ("i") events, or complete ("X") when they
   carry a duration. Everything except the leading metadata event is
   sorted by timestamp so trace consumers see one merged timeline. *)
let chrome_trace () =
  let rows = ref [] in
  let push ts rendered = rows := (ts, List.length !rows, rendered) :: !rows in
  List.iter
    (fun (name, start_s, dur_s, depth) ->
      let ts = start_s *. 1e6 in
      push ts
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"pass\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d}}"
           (Json_util.escape name) ts (dur_s *. 1e6) depth))
    (Obs.trace_events ());
  List.iter
    (fun (e : t) ->
      let ts = e.ts_s *. 1e6 in
      let args = Buffer.create 64 in
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char args ',';
          Buffer.add_string args
            (Printf.sprintf "\"%s\":%s" (Json_util.escape k) (value_json v)))
        e.args;
      let rendered =
        if e.dur_s > 0.0 then
          Printf.sprintf
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
            (Json_util.escape e.name) (Json_util.escape e.cat) ts (e.dur_s *. 1e6)
            (Buffer.contents args)
        else
          Printf.sprintf
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":%.3f,\"s\":\"t\",\"args\":{%s}}"
            (Json_util.escape e.name) (Json_util.escape e.cat) ts
            (Buffer.contents args)
      in
      push ts rendered)
    (recorded ());
  let sorted =
    List.sort
      (fun (ta, ia, _) (tb, ib, _) ->
        match compare ta tb with 0 -> compare ia ib | c -> c)
      (List.rev !rows)
  in
  let last_ts =
    List.fold_left (fun acc (ts, _, _) -> max acc ts) 0.0 sorted
  in
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"traceEvents\":[";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"memcomp\"}}";
  List.iter
    (fun (_, _, rendered) ->
      Buffer.add_char b ',';
      Buffer.add_string b rendered)
    sorted;
  let cs = Obs.counters_alist () in
  if cs <> [] then begin
    Buffer.add_string b
      (Printf.sprintf
         ",{\"name\":\"counters\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"args\":{"
         last_ts);
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%d" (Json_util.escape name) v))
      cs;
    Buffer.add_string b "}}"
  end;
  Buffer.add_string b "]}";
  Buffer.contents b

let write_chrome_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace ()))
