(* Recursive-descent parser for TinyC with precedence climbing.

   Tokens are tested against constant constructors with [==], which
   compares immediates and never calls the polymorphic [compare]; the
   tokens that carry a payload ([INT], [IDENT]) are only ever matched. *)

open Token

type t = { toks : Token.spanned array; mutable cur : int }

let create toks = { toks; cur = 0 }

let peek p = p.toks.(p.cur).tok
let peek_at p n =
  if p.cur + n < Array.length p.toks then p.toks.(p.cur + n).tok else EOF

(* Parse errors are located structured diagnostics anchored at the current
   token, which also names itself in the message. *)
let fail p fmt =
  let { tok; line; col } = p.toks.(p.cur) in
  Fmt.kstr
    (fun s ->
      Diag.error ~loc:{ Diag.line; col } Diag.Parse "near %S: %s"
        (Token.to_string tok) s)
    fmt

let advance p = p.cur <- p.cur + 1

let expect p tok =
  if peek p == tok then advance p
  else fail p "expected %S" (Token.to_string tok)

let eat_ident p =
  match peek p with
  | IDENT s -> advance p; s
  | _ -> fail p "expected identifier"

(* ---- types ---- *)

let starts_type p =
  match peek p with KW_INT | KW_VOID | KW_STRUCT -> true | _ -> false

let parse_base_type p : Ast.ty =
  match peek p with
  | KW_INT -> advance p; Ast.Tint
  | KW_VOID -> advance p; Ast.Tvoid
  | KW_STRUCT ->
    advance p;
    let name = eat_ident p in
    Ast.Tstruct name
  | _ -> fail p "expected a type"

let parse_type p : Ast.ty =
  let base = parse_base_type p in
  let rec stars ty = if peek p == STAR then (advance p; stars (Ast.Tptr ty)) else ty in
  stars base

(* ---- expressions ---- *)

let binop_of_token = function
  | PLUS -> Some Ast.Badd | MINUS -> Some Ast.Bsub
  | STAR -> Some Ast.Bmul | SLASH -> Some Ast.Bdiv | PERCENT -> Some Ast.Brem
  | AMP -> Some Ast.Band | PIPE -> Some Ast.Bor | CARET -> Some Ast.Bxor
  | SHL -> Some Ast.Bshl | SHR -> Some Ast.Bshr
  | LT -> Some Ast.Blt | LE -> Some Ast.Ble | GT -> Some Ast.Bgt | GE -> Some Ast.Bge
  | EQ -> Some Ast.Beq | NE -> Some Ast.Bne
  | ANDAND -> Some Ast.Bland | OROR -> Some Ast.Blor
  | _ -> None

let precedence = function
  | Ast.Blor -> 1
  | Ast.Bland -> 2
  | Ast.Bor -> 3
  | Ast.Bxor -> 4
  | Ast.Band -> 5
  | Ast.Beq | Ast.Bne -> 6
  | Ast.Blt | Ast.Ble | Ast.Bgt | Ast.Bge -> 7
  | Ast.Bshl | Ast.Bshr -> 8
  | Ast.Badd | Ast.Bsub -> 9
  | Ast.Bmul | Ast.Bdiv | Ast.Brem -> 10

let rec parse_expr p : Ast.expr =
  (* conditional expressions sit above the binary operators and associate
     to the right, as in C *)
  let cond = parse_binary p 1 in
  if peek p == QUESTION then begin
    advance p;
    let then_ = parse_expr p in
    expect p COLON;
    let else_ = parse_expr p in
    Ast.Eternary (cond, then_, else_)
  end
  else cond

and parse_binary p min_prec : Ast.expr =
  let lhs = ref (parse_unary p) in
  let continue_ = ref true in
  while !continue_ do
    match binop_of_token (peek p) with
    | Some op when precedence op >= min_prec ->
      advance p;
      let rhs = parse_binary p (precedence op + 1) in
      lhs := Ast.Ebinop (op, !lhs, rhs)
    | Some _ | None -> continue_ := false
  done;
  !lhs

and parse_unary p : Ast.expr =
  match peek p with
  | MINUS -> advance p; Ast.Eunop (Ast.Uneg, parse_unary p)
  | TILDE -> advance p; Ast.Eunop (Ast.Unot, parse_unary p)
  | BANG -> advance p; Ast.Eunop (Ast.Ulnot, parse_unary p)
  | STAR -> advance p; Ast.Ederef (parse_unary p)
  | AMP -> advance p; Ast.Eaddr (parse_unary p)
  | KW_SIZEOF ->
    advance p;
    expect p LPAREN;
    let ty = parse_type p in
    expect p RPAREN;
    Ast.Esizeof ty
  | LPAREN when (match peek_at p 1 with KW_INT | KW_VOID | KW_STRUCT -> true | _ -> false) ->
    advance p;
    let ty = parse_type p in
    expect p RPAREN;
    Ast.Ecast (ty, parse_unary p)
  | _ -> parse_postfix p

and parse_postfix p : Ast.expr =
  let e = ref (parse_primary p) in
  let continue_ = ref true in
  while !continue_ do
    match peek p with
    | LBRACKET ->
      advance p;
      let idx = parse_expr p in
      expect p RBRACKET;
      e := Ast.Eindex (!e, idx)
    | DOT ->
      advance p;
      e := Ast.Efield (!e, eat_ident p)
    | ARROW ->
      advance p;
      e := Ast.Earrow (!e, eat_ident p)
    | LPAREN ->
      advance p;
      let args = parse_args p in
      expect p RPAREN;
      e := (match !e with
        | Ast.Eident f -> Ast.Ecall (f, args)
        | other -> Ast.Eicall (other, args))
    | _ -> continue_ := false
  done;
  !e

and parse_args p : Ast.expr list =
  if peek p == RPAREN then []
  else begin
    let rec loop acc =
      let e = parse_expr p in
      if peek p == COMMA then (advance p; loop (e :: acc))
      else List.rev (e :: acc)
    in
    loop []
  end

and parse_primary p : Ast.expr =
  match peek p with
  | INT n -> advance p; Ast.Eint n
  | IDENT s -> advance p; Ast.Eident s
  | LPAREN ->
    advance p;
    let e = parse_expr p in
    expect p RPAREN;
    e
  | _ -> fail p "expected expression"

(* ---- statements ---- *)

let rec parse_stmt p : Ast.stmt =
  match peek p with
  | LBRACE -> Ast.Sblock (parse_block p)
  | KW_IF ->
    advance p;
    expect p LPAREN;
    let cond = parse_expr p in
    expect p RPAREN;
    let then_ = parse_stmt_as_block p in
    let else_ =
      if peek p == KW_ELSE then (advance p; parse_stmt_as_block p) else []
    in
    Ast.Sif (cond, then_, else_)
  | KW_WHILE ->
    advance p;
    expect p LPAREN;
    let cond = parse_expr p in
    expect p RPAREN;
    Ast.Swhile (cond, parse_stmt_as_block p)
  | KW_FOR ->
    advance p;
    expect p LPAREN;
    let init = if peek p == SEMI then None else Some (parse_simple p) in
    expect p SEMI;
    let cond = if peek p == SEMI then None else Some (parse_expr p) in
    expect p SEMI;
    let step = if peek p == RPAREN then None else Some (parse_simple p) in
    expect p RPAREN;
    Ast.Sfor (init, cond, step, parse_stmt_as_block p)
  | KW_RETURN ->
    advance p;
    let e = if peek p == SEMI then None else Some (parse_expr p) in
    expect p SEMI;
    Ast.Sreturn e
  | KW_BREAK -> advance p; expect p SEMI; Ast.Sbreak
  | KW_CONTINUE -> advance p; expect p SEMI; Ast.Scontinue
  | KW_INT | KW_VOID | KW_STRUCT ->
    let s = parse_decl p in
    expect p SEMI;
    s
  | _ ->
    let s = parse_simple p in
    expect p SEMI;
    s

(** Declaration without the trailing semicolon:
    [ty x], [ty x = e], [ty x\[N\]]. *)
and parse_decl p : Ast.stmt =
  let ty = parse_type p in
  let name = eat_ident p in
  if peek p == LBRACKET then begin
    advance p;
    let n =
      match peek p with
      | INT n -> advance p; n
      | _ -> fail p "array size must be an integer literal"
    in
    expect p RBRACKET;
    Ast.Sdecl (Ast.Tarr (n, ty), name, None)
  end
  else if peek p == ASSIGN then begin
    advance p;
    Ast.Sdecl (ty, name, Some (parse_expr p))
  end
  else Ast.Sdecl (ty, name, None)

(** Assignment or expression statement, without the semicolon (usable as a
    [for] clause). *)
and parse_simple p : Ast.stmt =
  if starts_type p then parse_decl p
  else begin
    let lhs = parse_expr p in
    match peek p with
    | ASSIGN ->
      advance p;
      let rhs = parse_expr p in
      Ast.Sassign (lhs, rhs)
    | PLUSEQ ->
      advance p;
      let rhs = parse_expr p in
      Ast.Sassign (lhs, Ast.Ebinop (Ast.Badd, lhs, rhs))
    | MINUSEQ ->
      advance p;
      let rhs = parse_expr p in
      Ast.Sassign (lhs, Ast.Ebinop (Ast.Bsub, lhs, rhs))
    | STAREQ ->
      advance p;
      let rhs = parse_expr p in
      Ast.Sassign (lhs, Ast.Ebinop (Ast.Bmul, lhs, rhs))
    | _ -> Ast.Sexpr lhs
  end

and parse_stmt_as_block p : Ast.stmt list =
  match parse_stmt p with Ast.Sblock ss -> ss | s -> [ s ]

and parse_block p : Ast.stmt list =
  expect p LBRACE;
  let rec loop acc =
    if peek p == RBRACE then (advance p; List.rev acc)
    else loop (parse_stmt p :: acc)
  in
  loop []

(* ---- top level ---- *)

let parse_struct p : Ast.struct_def =
  expect p KW_STRUCT;
  let sname = eat_ident p in
  expect p LBRACE;
  let rec fields acc =
    if peek p == RBRACE then (advance p; List.rev acc)
    else begin
      let ty = parse_type p in
      let name = eat_ident p in
      expect p SEMI;
      fields ((name, ty) :: acc)
    end
  in
  let sfields = fields [] in
  expect p SEMI;
  { Ast.sname; sfields }

let parse_item p : Ast.item =
  if peek p == KW_STRUCT && peek_at p 2 == LBRACE then Ast.Istruct (parse_struct p)
  else begin
    let ty = parse_type p in
    let name = eat_ident p in
    match peek p with
    | LPAREN ->
      advance p;
      let rec params acc =
        if peek p == RPAREN then (advance p; List.rev acc)
        else begin
          let pty = parse_type p in
          let pname = eat_ident p in
          let acc = (pty, pname) :: acc in
          if peek p == COMMA then (advance p; params acc)
          else (expect p RPAREN; List.rev acc)
        end
      in
      let fparams = params [] in
      let fbody = parse_block p in
      Ast.Ifunc { Ast.fret = ty; fdname = name; fparams; fbody }
    | LBRACKET ->
      advance p;
      let n =
        match peek p with
        | INT n -> advance p; n
        | _ -> fail p "global array size must be an integer literal"
      in
      expect p RBRACKET;
      expect p SEMI;
      Ast.Iglobal { Ast.gdty = Ast.Tarr (n, ty); gdname = name; gdinit = None }
    | ASSIGN ->
      advance p;
      let n =
        match peek p with
        | INT n -> advance p; n
        | MINUS ->
          advance p;
          (match peek p with
          | INT n -> advance p; -n
          | _ -> fail p "global initializer must be an integer literal")
        | _ -> fail p "global initializer must be an integer literal"
      in
      expect p SEMI;
      Ast.Iglobal { Ast.gdty = ty; gdname = name; gdinit = Some n }
    | SEMI ->
      advance p;
      Ast.Iglobal { Ast.gdty = ty; gdname = name; gdinit = None }
    | _ -> fail p "expected '(', '[', '=' or ';' after top-level declarator"
  end

let parse_program (src : string) : Ast.program =
  let p = create (Lexer.tokenize src) in
  let rec loop acc =
    if peek p == EOF then List.rev acc else loop (parse_item p :: acc)
  in
  loop []
