(* Hand-rolled lexer for TinyC. Supports // and /* */ comments.
   Errors are located structured diagnostics: [Diag.Error] with phase
   [Diag.Lex] and the current line/col.

   The lexer reads the source in place and allocates nothing per
   character: the column is the distance from the start of the current
   line. [tokenize] makes the parser's token array in one copy. *)

type t = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* position of the first character of [line] *)
}

let create src = { src; len = String.length src; pos = 0; line = 1; bol = 0 }

let col lx = lx.pos - lx.bol + 1

let fail lx fmt =
  Diag.error ~loc:{ Diag.line = lx.line; col = col lx } Diag.Lex fmt

(* Is the character at [i] (which may lie past the end) equal to [c]? *)
let at lx i c = i < lx.len && lx.src.[i] = c

let advance lx =
  if lx.src.[lx.pos] = '\n' then begin
    lx.line <- lx.line + 1;
    lx.bol <- lx.pos + 1
  end;
  lx.pos <- lx.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_ws lx =
  if lx.pos < lx.len then
    match lx.src.[lx.pos] with
    | ' ' | '\t' | '\r' | '\n' ->
      advance lx;
      skip_ws lx
    | '/' when at lx (lx.pos + 1) '/' ->
      while lx.pos < lx.len && lx.src.[lx.pos] <> '\n' do
        lx.pos <- lx.pos + 1
      done;
      skip_ws lx
    | '/' when at lx (lx.pos + 1) '*' ->
      lx.pos <- lx.pos + 2;
      let rec loop () =
        if lx.pos >= lx.len then fail lx "unterminated comment"
        else if lx.src.[lx.pos] = '*' && at lx (lx.pos + 1) '/' then
          lx.pos <- lx.pos + 2
        else begin
          advance lx;
          loop ()
        end
      in
      loop ();
      skip_ws lx
    | _ -> ()

let keyword_or_ident = function
  | "int" -> Token.KW_INT
  | "void" -> Token.KW_VOID
  | "struct" -> Token.KW_STRUCT
  | "if" -> Token.KW_IF
  | "else" -> Token.KW_ELSE
  | "while" -> Token.KW_WHILE
  | "for" -> Token.KW_FOR
  | "return" -> Token.KW_RETURN
  | "break" -> Token.KW_BREAK
  | "continue" -> Token.KW_CONTINUE
  | "sizeof" -> Token.KW_SIZEOF
  | s -> Token.IDENT s

(* A literal of up to 18 digits cannot overflow; longer ones go through
   [int_of_string], which fails on them exactly as it always did. *)
let int_literal lx start =
  let n = lx.pos - start in
  if n <= 18 then begin
    let v = ref 0 in
    for i = start to lx.pos - 1 do
      v := (!v * 10) + (Char.code lx.src.[i] - 48)
    done;
    !v
  end
  else int_of_string (String.sub lx.src start n)

(* Step over the one character [c] (not a newline) or, when [expect]
   follows it, over both; the token starts at [line]/[col]. *)
let one lx line col tok =
  lx.pos <- lx.pos + 1;
  { Token.tok; line; col }

let two lx line col expect tok1 tok0 =
  if at lx (lx.pos + 1) expect then begin
    lx.pos <- lx.pos + 2;
    { Token.tok = tok1; line; col }
  end
  else one lx line col tok0

(* The next token, with its start position. Only single-line tokens
   remain after [skip_ws], so the token's characters move [pos] alone. *)
let next (lx : t) : Token.spanned =
  skip_ws lx;
  let line = lx.line and col = col lx in
  if lx.pos >= lx.len then { Token.tok = Token.EOF; line; col }
  else
    let c = lx.src.[lx.pos] in
    if is_digit c then begin
      let start = lx.pos in
      while lx.pos < lx.len && is_digit lx.src.[lx.pos] do lx.pos <- lx.pos + 1 done;
      { Token.tok = Token.INT (int_literal lx start); line; col }
    end
    else if is_ident_start c then begin
      let start = lx.pos in
      while lx.pos < lx.len && is_ident_char lx.src.[lx.pos] do lx.pos <- lx.pos + 1 done;
      let s = String.sub lx.src start (lx.pos - start) in
      { Token.tok = keyword_or_ident s; line; col }
    end
    else
      match c with
      | '(' -> one lx line col Token.LPAREN
      | ')' -> one lx line col Token.RPAREN
      | '{' -> one lx line col Token.LBRACE
      | '}' -> one lx line col Token.RBRACE
      | '[' -> one lx line col Token.LBRACKET
      | ']' -> one lx line col Token.RBRACKET
      | ';' -> one lx line col Token.SEMI
      | '?' -> one lx line col Token.QUESTION
      | ':' -> one lx line col Token.COLON
      | ',' -> one lx line col Token.COMMA
      | '.' -> one lx line col Token.DOT
      | '+' -> two lx line col '=' Token.PLUSEQ Token.PLUS
      | '-' ->
        if at lx (lx.pos + 1) '>' then two lx line col '>' Token.ARROW Token.MINUS
        else two lx line col '=' Token.MINUSEQ Token.MINUS
      | '*' -> two lx line col '=' Token.STAREQ Token.STAR
      | '/' -> one lx line col Token.SLASH
      | '%' -> one lx line col Token.PERCENT
      | '~' -> one lx line col Token.TILDE
      | '^' -> one lx line col Token.CARET
      | '&' -> two lx line col '&' Token.ANDAND Token.AMP
      | '|' -> two lx line col '|' Token.OROR Token.PIPE
      | '!' -> two lx line col '=' Token.NE Token.BANG
      | '=' -> two lx line col '=' Token.EQ Token.ASSIGN
      | '<' ->
        if at lx (lx.pos + 1) '<' then two lx line col '<' Token.SHL Token.LT
        else two lx line col '=' Token.LE Token.LT
      | '>' ->
        if at lx (lx.pos + 1) '>' then two lx line col '>' Token.SHR Token.GT
        else two lx line col '=' Token.GE Token.GT
      | c -> fail lx "unexpected character %C" c

(** Tokenize a whole source string into an array ending with EOF.

    The tokens are gathered in a list and the array is made once, of the
    exact length, from the EOF token. Being young, that token makes the
    runtime run a minor collection before it allocates a large array,
    between programs rather than in the middle of one: a stream of small
    programs then promotes little of each program's IR and analysis.
    Filling a preallocated array instead doubled the words promoted over
    2,000 generated programs, and the extra major collections made their
    analysis slower. *)
let tokenize (src : string) : Token.spanned array =
  let lx = create src in
  let rec gather acc n =
    let t = next lx in
    if t.Token.tok != Token.EOF then gather (t :: acc) (n + 1)
    else begin
      let toks = Array.make (n + 1) t in
      List.iteri (fun i t -> toks.(n - 1 - i) <- t) acc;
      toks
    end
  in
  gather [] 0
