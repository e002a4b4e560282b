(* Shared JSON primitives for the observability layer.

   One escaper for every JSON producer in the tree (the Obs Chrome
   trace, snapshot databases, tuning reports), one typed payload
   value, the minimal JSON document parser/printer, and the file I/O
   of the snapshot and tuning databases. Keeping them here, below Obs
   in the dependency graph, means every module escapes strings
   byte-identically. *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Typed payload values (the Obs decision-event payload)               *)
(* ------------------------------------------------------------------ *)

type value = S of string | I of int | F of float | B of bool

(* Floats always carry a '.' or exponent so a reader can tell them from
   ints; "%.17g" keeps every finite double exact. *)
let float_repr f =
  if Float.is_nan f then "\"nan\""
  else if f = infinity then "\"inf\""
  else if f = neg_infinity then "\"-inf\""
  else begin
    let s = Printf.sprintf "%.17g" f in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  end

let value_json = function
  | S s -> Printf.sprintf "\"%s\"" (escape s)
  | I i -> string_of_int i
  | F f -> float_repr f
  | B b -> string_of_bool b

let value_to_string = function
  | S s -> s
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%g" f
  | B b -> string_of_bool b

(* ------------------------------------------------------------------ *)
(* Minimal JSON documents: enough for the snapshot schema and the      *)
(* tuning database; exact float round-trip via %.17g.                  *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  (* %.17g round-trips every finite double exactly; integral values
     print without an exponent so counters stay readable. *)
  let num_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  let rec add buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool true -> Buffer.add_string buf "true"
    | Bool false -> Buffer.add_string buf "false"
    | Num f -> Buffer.add_string buf (num_to_string f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | Arr l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            add buf v)
          l;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            add buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string j =
    let b = Buffer.create 1024 in
    add b j;
    Buffer.contents b

  exception Bad of string

  let parse_exn (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let hex_digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let add_utf8 b code =
      if code < 0x80 then Buffer.add_char b (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
            advance ();
            (match peek () with
            | Some '"' -> Buffer.add_char b '"'; advance ()
            | Some '\\' -> Buffer.add_char b '\\'; advance ()
            | Some '/' -> Buffer.add_char b '/'; advance ()
            | Some 'b' -> Buffer.add_char b '\b'; advance ()
            | Some 'f' -> Buffer.add_char b '\012'; advance ()
            | Some 'n' -> Buffer.add_char b '\n'; advance ()
            | Some 'r' -> Buffer.add_char b '\r'; advance ()
            | Some 't' -> Buffer.add_char b '\t'; advance ()
            | Some 'u' ->
                advance ();
                let code = ref 0 in
                for _ = 1 to 4 do
                  match peek () with
                  | Some c ->
                      code := (!code * 16) + hex_digit c;
                      advance ()
                  | None -> fail "truncated \\u escape"
                done;
                add_utf8 b !code
            | _ -> fail "bad escape");
            go ()
        | Some c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> num_char c | None -> false) do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      match float_of_string_opt text with
      | Some f -> Num f
      | None -> fail (Printf.sprintf "bad number %S" text)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((key, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elems (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elems []
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('0' .. '9' | '-') -> parse_number ()
      | _ -> fail "unexpected character"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let parse s = try Ok (parse_exn s) with Bad msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* Sys_error names the path when opening fails, but not when a read or
   write on the open channel does (reading a directory, say). *)
let io_error path msg =
  let prefix = path ^ ": " in
  Error (if String.starts_with ~prefix msg then msg else prefix ^ msg)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error msg -> io_error path msg

let write_json path j =
  match
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (Json.to_string j);
        Out_channel.output_char oc '\n')
  with
  | () -> Ok ()
  | exception Sys_error msg -> io_error path msg
