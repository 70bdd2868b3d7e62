(* A minimal JSON value type, parser and one-line emitter.

   The project depends on no JSON library; the perf benchmark uses this
   module to write and read back its result and trace files. The subset
   is full JSON minus surrogate-pair pedantry: \uXXXX escapes decode to
   UTF-8, numbers parse as OCaml floats. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- parsing ---- *)

exception Parse_error of string

let parse (s : string) : (t, string) result =
  let len = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt in
  let peek () = if !pos < len then Some s.[!pos] else None in
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
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected '%c' at offset %d, got '%c'" c !pos c'
    | None -> fail "expected '%c' at offset %d, got end of input" c !pos
  in
  let literal word v =
    if
      !pos + String.length word <= len
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal at offset %d" !pos
  in
  let utf8_of_code b u =
    if u < 0x80 then Buffer.add_char b (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= len then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
           if !pos + 4 > len then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           let u =
             match int_of_string_opt ("0x" ^ hex) with
             | Some u -> u
             | None -> fail "bad \\u escape %S" hex
           in
           utf8_of_code b u
         | c -> fail "bad escape '\\%c'" c);
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> numchar c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> fail "bad number %S at offset %d" text start
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' ->
      advance ();
      Str (string_body ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          expect '"';
          let k = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}' at offset %d" !pos
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']' at offset %d" !pos
        in
        Arr (items [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> len then fail "trailing bytes at offset %d" !pos;
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

(* ---- emitting ---- *)

let escape_into (b : Buffer.t) (s : string) : unit =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec emit (b : Buffer.t) : t -> unit = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.0f" f)
    else Buffer.add_string b (Printf.sprintf "%.6g" f)
  | Str s -> escape_into b s
  | Arr items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        emit b v)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_into b k;
        Buffer.add_char b ':';
        emit b v)
      fields;
    Buffer.add_char b '}'

(** Compact single-line rendering (no embedded newlines: string newlines
    are escaped, so the result is always one NDJSON-safe line). *)
let to_line (v : t) : string =
  let b = Buffer.create 256 in
  emit b v;
  Buffer.contents b

(* ---- accessors ---- *)

let member (k : string) : t -> t option = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let str = function Str s -> Some s | _ -> None

let int_ = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let bool_ = function Bool b -> Some b | _ -> None
let num = function Num f -> Some f | _ -> None
let list_ = function Arr l -> Some l | _ -> None
