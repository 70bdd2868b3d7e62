(* Lowering TinyC ASTs to the LLVM-like IR, mirroring how clang -O0 lowers C:

   - every local (and parameter) gets a stack [Alloc] in the entry block and
     is accessed through loads and stores; mem2reg later promotes scalars
     whose address does not escape, producing the paper's Var_TL;
   - the C address-of operator disappears: [&x] is the alloc result, [&e->f]
     and [&e[i]] are Field_addr/Index_addr (cf. Fig. 2);
   - [malloc]/[calloc] become heap [Alloc]s (alloc_F / alloc_T), with
     [sizeof(struct S)] arguments giving field-sensitive objects;
   - logical && and || are evaluated non-short-circuit (both operands are
     computed, then combined), as in the paper's TinyC where they are plain
     binary operations. *)

open Ir.Types
module B = Ir.Builder

let fail fmt = Diag.error Diag.Lower fmt

type env = {
  prog : Ir.Prog.t;
  structs : (string, (string * Ast.ty) list) Hashtbl.t;
  fsigs : (string, int) Hashtbl.t;            (* function -> arity *)
  global_tys : (string, Ast.ty) Hashtbl.t;
  mutable bld : B.t;
  mutable scopes : (string, var * Ast.ty) Hashtbl.t list;
  mutable decls : (string * var) list;        (* pre-allocated locals, in order *)
  mutable break_tgt : blockid list;
  mutable cont_tgt : blockid list;
  mutable ret_void : bool;
}

let builtin_names = [ "malloc"; "calloc"; "input"; "print" ]

let push_scope env = env.scopes <- Hashtbl.create 8 :: env.scopes
let pop_scope env =
  match env.scopes with
  | _ :: rest -> env.scopes <- rest
  | [] -> assert false

let bind env name addr ty =
  match env.scopes with
  | scope :: _ -> Hashtbl.replace scope name (addr, ty)
  | [] -> assert false

let lookup_local env name =
  let rec go = function
    | scope :: rest -> (
      match Hashtbl.find_opt scope name with
      | Some b -> Some b
      | None -> go rest)
    | [] -> None
  in
  go env.scopes

let fields_of env sname =
  match Hashtbl.find_opt env.structs sname with
  | Some fs -> fs
  | None -> fail "unknown struct %s" sname

let field_index env sname fname =
  let fs = fields_of env sname in
  let rec go i = function
    | (n, ty) :: rest -> if n = fname then (i, ty) else go (i + 1) rest
    | [] -> fail "struct %s has no field %s" sname fname
  in
  go 0 fs

let rec sizeof env (ty : Ast.ty) : int =
  match ty with
  | Ast.Tint | Ast.Tptr _ -> 1
  | Ast.Tstruct s -> List.length (fields_of env s)
  | Ast.Tarr (n, t) -> n * sizeof env t
  | Ast.Tvoid -> fail "sizeof(void)"

let asize_of env (ty : Ast.ty) : asize =
  match ty with
  | Ast.Tint | Ast.Tptr _ -> Fields 1
  | Ast.Tstruct s -> Fields (List.length (fields_of env s))
  | Ast.Tarr (n, t) -> Array_of (Cst (n * sizeof env t))
  | Ast.Tvoid -> fail "cannot allocate void"

let binop_ir : Ast.binop -> binop = function
  | Ast.Badd -> Add | Ast.Bsub -> Sub | Ast.Bmul -> Mul | Ast.Bdiv -> Div
  | Ast.Brem -> Rem | Ast.Band -> And | Ast.Bor -> Or | Ast.Bxor -> Xor
  | Ast.Bshl -> Shl | Ast.Bshr -> Shr
  | Ast.Blt -> Lt | Ast.Ble -> Le | Ast.Bgt -> Gt | Ast.Bge -> Ge
  | Ast.Beq -> Eq | Ast.Bne -> Ne
  | Ast.Bland | Ast.Blor -> assert false (* handled separately *)

(* The element type a pointer/array value gives access to. *)
let deref_ty = function
  | Ast.Tptr t -> t
  | Ast.Tarr (_, t) -> t
  | Ast.Tint -> Ast.Tint        (* loose: int used as address of int *)
  | t -> fail "cannot dereference a value of this type (%s)"
           (match t with Ast.Tstruct s -> "struct " ^ s | Ast.Tvoid -> "void" | _ -> "?")

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* [lower_lvalue] returns the *address* (a top-level variable holding a
   pointer) of the denoted cell, with the cell's type. *)
let rec lower_lvalue env (e : Ast.expr) : var * Ast.ty =
  match e with
  | Ast.Eident x -> (
    match lookup_local env x with
    | Some (addr, ty) -> (addr, ty)
    | None -> (
      match Hashtbl.find_opt env.global_tys x with
      | Some ty -> (B.global_addr env.bld x, ty)
      | None -> fail "unknown variable %s" x))
  | Ast.Ederef e ->
    let v, ty = lower_value env e in
    (as_var env v, deref_ty ty)
  | Ast.Eindex (base, idx) ->
    let bptr, ety = lower_array_base env base in
    let iv, _ = lower_value env idx in
    (B.index_addr env.bld bptr iv, ety)
  | Ast.Efield (base, f) -> (
    let baddr, bty = lower_lvalue env base in
    match bty with
    | Ast.Tstruct s ->
      let idx, fty = field_index env s f in
      (B.field_addr env.bld baddr idx, fty)
    | _ -> fail "field access on non-struct")
  | Ast.Earrow (base, f) -> (
    let v, ty = lower_value env base in
    match deref_ty ty with
    | Ast.Tstruct s ->
      let idx, fty = field_index env s f in
      (B.field_addr env.bld (as_var env v) idx, fty)
    | _ -> fail "-> on non-struct pointer")
  | _ -> fail "expression is not an lvalue"

(* The pointer a subscript indexes: an array lvalue decays to its base
   address; anything else is evaluated as a pointer value. *)
and lower_array_base env (e : Ast.expr) : var * Ast.ty =
  let as_pointer () =
    let v, ty = lower_value env e in
    (as_var env v, deref_ty ty)
  in
  match e with
  | Ast.Eident x -> (
    (* The declared type decides, so a pointer lowers no address first. *)
    let declared =
      match lookup_local env x with
      | Some (_, ty) -> Some ty
      | None -> Hashtbl.find_opt env.global_tys x
    in
    match declared with
    | Some (Ast.Tarr (_, ety)) -> (fst (lower_lvalue env e), ety)
    | _ -> as_pointer ())
  | Ast.Efield _ | Ast.Earrow _ -> (
    (* The field's type decides: its address is lowered once, and a
       pointer is loaded from it, as [lower_value] would. *)
    let addr, ty = lower_lvalue env e in
    match ty with
    | Ast.Tarr (_, ety) -> (addr, ety)
    | _ -> (B.load env.bld addr, deref_ty ty))
  | _ -> as_pointer ()

and as_var env (o : operand) : var =
  match o with
  | Var v -> v
  | Cst _ | Undef -> B.copy env.bld o

(* [lower_value] evaluates an expression to an operand plus its loose type. *)
and lower_value env (e : Ast.expr) : operand * Ast.ty =
  match e with
  | Ast.Eint n -> (Cst n, Ast.Tint)
  | Ast.Eident x -> (
    match lookup_local env x with
    | Some (addr, ty) -> (
      match ty with
      | Ast.Tarr (_, ety) -> (Var addr, Ast.Tptr ety) (* array decay *)
      | _ -> (Var (B.load env.bld addr), ty))
    | None -> (
      match Hashtbl.find_opt env.global_tys x with
      | Some ty -> (
        let addr = B.global_addr env.bld x in
        match ty with
        | Ast.Tarr (_, ety) -> (Var addr, Ast.Tptr ety)
        | _ -> (Var (B.load env.bld addr), ty))
      | None ->
        if Hashtbl.mem env.fsigs x then
          (Var (B.func_addr env.bld x), Ast.Tptr Ast.Tvoid)
        else fail "unknown identifier %s" x))
  | Ast.Ebinop (Ast.Bland, a, b) ->
    let va, _ = lower_value env a in
    let vb, _ = lower_value env b in
    let ta = B.binop env.bld Ne va (Cst 0) in
    let tb = B.binop env.bld Ne vb (Cst 0) in
    (Var (B.binop env.bld And (Var ta) (Var tb)), Ast.Tint)
  | Ast.Ebinop (Ast.Blor, a, b) ->
    let va, _ = lower_value env a in
    let vb, _ = lower_value env b in
    let ta = B.binop env.bld Ne va (Cst 0) in
    let tb = B.binop env.bld Ne vb (Cst 0) in
    (Var (B.binop env.bld Or (Var ta) (Var tb)), Ast.Tint)
  | Ast.Ebinop (op, a, b) ->
    let va, ta = lower_value env a in
    let vb, _tb = lower_value env b in
    (* Pointer arithmetic [p + n] is an address computation, not an ALU op. *)
    (match (op, ta) with
    | (Ast.Badd | Ast.Bsub), (Ast.Tptr ety) ->
      let off = if op = Ast.Badd then vb else Var (B.unop env.bld Neg vb) in
      (Var (B.index_addr env.bld (as_var env va) off), Ast.Tptr ety)
    | _ -> (Var (B.binop env.bld (binop_ir op) va vb), Ast.Tint))
  | Ast.Eunop (op, a) ->
    let va, _ = lower_value env a in
    let u = match op with Ast.Uneg -> Neg | Ast.Unot -> Not | Ast.Ulnot -> Lnot in
    (Var (B.unop env.bld u va), Ast.Tint)
  | Ast.Ederef _ | Ast.Eindex _ | Ast.Efield _ | Ast.Earrow _ ->
    let addr, ty = lower_lvalue env e in
    (match ty with
    | Ast.Tarr (_, ety) -> (Var addr, Ast.Tptr ety)
    | _ -> (Var (B.load env.bld addr), ty))
  | Ast.Eaddr lv ->
    let addr, ty = lower_lvalue env lv in
    (Var addr, Ast.Tptr ty)
  | Ast.Esizeof ty -> (Cst (sizeof env ty), Ast.Tint)
  | Ast.Ecast (ty, Ast.Ecall (("malloc" | "calloc") as fn, args)) ->
    lower_malloc env fn args ~cast:(Some ty)
  | Ast.Ecast (ty, e) ->
    let v, _ = lower_value env e in
    (v, ty)
  | Ast.Ecall (("malloc" | "calloc") as fn, args) ->
    lower_malloc env fn args ~cast:None
  | Ast.Ecall ("input", []) ->
    let x = B.fresh_temp env.bld in
    ignore (B.add env.bld (Input x));
    (Var x, Ast.Tint)
  | Ast.Ecall ("print", [ arg ]) ->
    let v, _ = lower_value env arg in
    ignore (B.add env.bld (Output v));
    (Cst 0, Ast.Tint)
  | Ast.Ecall (f, args) when Hashtbl.mem env.fsigs f ->
    let arity = Hashtbl.find env.fsigs f in
    if List.length args <> arity then
      fail "call to %s with %d arguments (expected %d)" f (List.length args) arity;
    let vargs = List.map (fun a -> fst (lower_value env a)) args in
    (Var (B.call_val env.bld ~callee:(Direct f) ~args:vargs), Ast.Tint)
  | Ast.Ecall (f, args) ->
    (* Not a known function: must be a variable holding a function pointer. *)
    lower_icall env (Ast.Eident f) args
  | Ast.Eicall (e, args) -> lower_icall env e args
  | Ast.Eternary (c, a, b) ->
    (* lowered like an if/else over a fresh slot; mem2reg turns the slot
       into a phi *)
    let cv, _ = lower_value env c in
    let slot =
      B.alloc env.bld ~name:"ternary" ~region:Stack ~initialized:false
        ~asize:(Fields 1)
    in
    let bthen = B.new_block env.bld in
    let belse = B.new_block env.bld in
    let bjoin = B.new_block env.bld in
    B.terminate env.bld (Br (cv, bthen, belse));
    B.switch_to env.bld bthen;
    let va, ta = lower_value env a in
    B.store env.bld slot va;
    B.terminate env.bld (Jmp bjoin);
    B.switch_to env.bld belse;
    let vb, _ = lower_value env b in
    B.store env.bld slot vb;
    B.terminate env.bld (Jmp bjoin);
    B.switch_to env.bld bjoin;
    (Var (B.load env.bld slot), ta)

and lower_icall env e args =
  let v, _ = lower_value env e in
  let vargs = List.map (fun a -> fst (lower_value env a)) args in
  (Var (B.call_val env.bld ~callee:(Indirect (as_var env v)) ~args:vargs),
   Ast.Tint)

and lower_malloc env fn args ~cast : operand * Ast.ty =
  let initialized = fn = "calloc" in
  let struct_of_cast =
    match cast with Some (Ast.Tptr (Ast.Tstruct s)) -> Some s | _ -> None
  in
  let asize, ty =
    match (args, struct_of_cast) with
    | [ Ast.Esizeof (Ast.Tstruct s) ], _ | [ _ ], Some s ->
      (Fields (List.length (fields_of env s)), Ast.Tptr (Ast.Tstruct s))
    | [ a ], None -> (
      let v, _ = lower_value env a in
      match v with
      | Cst 1 ->
        (* A single-cell allocation is a scalar, not an array: it stays
           eligible for strong and semi-strong updates. *)
        (Fields 1, Ast.Tptr Ast.Tint)
      | _ -> (Array_of v, Ast.Tptr Ast.Tint))
    | _ -> fail "%s expects one argument" fn
  in
  let x =
    B.alloc env.bld ~name:(fn ^ "_obj") ~region:Heap ~initialized ~asize
  in
  (Var x, Option.value ~default:ty cast)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* Pre-pass: collect every local declaration in lowering order so all stack
   allocations can be emitted in the entry block (as clang does). *)
let rec collect_decls (ss : Ast.stmt list) acc =
  List.fold_left collect_stmt acc ss

and collect_stmt acc (s : Ast.stmt) =
  match s with
  | Ast.Sdecl (ty, name, _) -> (name, ty) :: acc
  | Ast.Sif (_, a, b) -> collect_decls b (collect_decls a acc)
  | Ast.Swhile (_, body) -> collect_decls body acc
  | Ast.Sfor (init, _, step, body) ->
    let acc = match init with Some s -> collect_stmt acc s | None -> acc in
    let acc = collect_decls body acc in
    (match step with Some s -> collect_stmt acc s | None -> acc)
  | Ast.Sblock ss -> collect_decls ss acc
  | Ast.Sassign _ | Ast.Sreturn _ | Ast.Sbreak | Ast.Scontinue | Ast.Sexpr _ ->
    acc

(* Ensure the current block is open; unreachable statements (after return or
   break) land in a fresh dead block. *)
let ensure_open env =
  if B.terminated env.bld then begin
    let b = B.new_block env.bld in
    B.switch_to env.bld b
  end

let rec lower_stmt env (s : Ast.stmt) : unit =
  ensure_open env;
  match s with
  | Ast.Sdecl (ty, name, init) -> (
    let addr =
      match env.decls with
      | (n, v) :: rest when n = name ->
        env.decls <- rest;
        v
      | _ -> fail "internal: declaration order mismatch for %s" name
    in
    bind env name addr ty;
    match init with
    | Some e ->
      let v, _ = lower_value env e in
      B.store env.bld addr v
    | None -> ())
  | Ast.Sassign (lhs, rhs) ->
    let v, _ = lower_value env rhs in
    let addr, _ = lower_lvalue env lhs in
    B.store env.bld addr v
  | Ast.Sif (cond, then_, else_) ->
    let cv, _ = lower_value env cond in
    let bthen = B.new_block env.bld in
    let belse = B.new_block env.bld in
    let bjoin = B.new_block env.bld in
    B.terminate env.bld (Br (cv, bthen, belse));
    B.switch_to env.bld bthen;
    lower_scoped env then_;
    if not (B.terminated env.bld) then B.terminate env.bld (Jmp bjoin);
    B.switch_to env.bld belse;
    lower_scoped env else_;
    if not (B.terminated env.bld) then B.terminate env.bld (Jmp bjoin);
    B.switch_to env.bld bjoin
  | Ast.Swhile (cond, body) ->
    let bcond = B.new_block env.bld in
    let bbody = B.new_block env.bld in
    let bexit = B.new_block env.bld in
    B.terminate env.bld (Jmp bcond);
    B.switch_to env.bld bcond;
    let cv, _ = lower_value env cond in
    B.terminate env.bld (Br (cv, bbody, bexit));
    B.switch_to env.bld bbody;
    env.break_tgt <- bexit :: env.break_tgt;
    env.cont_tgt <- bcond :: env.cont_tgt;
    lower_scoped env body;
    env.break_tgt <- List.tl env.break_tgt;
    env.cont_tgt <- List.tl env.cont_tgt;
    if not (B.terminated env.bld) then B.terminate env.bld (Jmp bcond);
    B.switch_to env.bld bexit
  | Ast.Sfor (init, cond, step, body) ->
    push_scope env;
    (match init with Some s -> lower_stmt env s | None -> ());
    ensure_open env;
    let bcond = B.new_block env.bld in
    let bbody = B.new_block env.bld in
    let bstep = B.new_block env.bld in
    let bexit = B.new_block env.bld in
    B.terminate env.bld (Jmp bcond);
    B.switch_to env.bld bcond;
    (match cond with
    | Some c ->
      let cv, _ = lower_value env c in
      B.terminate env.bld (Br (cv, bbody, bexit))
    | None -> B.terminate env.bld (Jmp bbody));
    B.switch_to env.bld bbody;
    env.break_tgt <- bexit :: env.break_tgt;
    env.cont_tgt <- bstep :: env.cont_tgt;
    lower_scoped env body;
    env.break_tgt <- List.tl env.break_tgt;
    env.cont_tgt <- List.tl env.cont_tgt;
    if not (B.terminated env.bld) then B.terminate env.bld (Jmp bstep);
    B.switch_to env.bld bstep;
    (match step with Some s -> lower_stmt env s | None -> ());
    if not (B.terminated env.bld) then B.terminate env.bld (Jmp bcond);
    B.switch_to env.bld bexit;
    pop_scope env
  | Ast.Sreturn e ->
    let v = match e with Some e -> Some (fst (lower_value env e)) | None -> None in
    B.terminate env.bld (Ret v)
  | Ast.Sbreak -> (
    match env.break_tgt with
    | b :: _ -> B.terminate env.bld (Jmp b)
    | [] -> fail "break outside loop")
  | Ast.Scontinue -> (
    match env.cont_tgt with
    | b :: _ -> B.terminate env.bld (Jmp b)
    | [] -> fail "continue outside loop")
  | Ast.Sexpr e -> ignore (lower_value env e)
  | Ast.Sblock ss -> lower_scoped env ss

and lower_scoped env ss =
  push_scope env;
  List.iter (lower_stmt env) ss;
  pop_scope env

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let lower_func env (fd : Ast.func_def) : unit =
  let bld = B.create env.prog ~fname:fd.Ast.fdname in
  env.bld <- bld;
  env.scopes <- [];
  push_scope env;
  let params = List.map (fun (ty, name) -> (B.mk_param bld name, ty, name)) fd.Ast.fparams in
  let entry = B.new_block bld in
  assert (entry = 0);
  B.switch_to bld entry;
  (* Parameters are spilled to stack slots, clang-style; mem2reg undoes it. *)
  List.iter
    (fun (pv, ty, name) ->
      let addr =
        B.alloc bld ~name ~region:Stack ~initialized:false ~asize:(asize_of env ty)
      in
      B.store bld addr (Var pv);
      bind env name addr ty)
    params;
  (* All local declarations allocate in the entry block. *)
  let decls = List.rev (collect_decls fd.Ast.fbody []) in
  env.decls <-
    List.map
      (fun (name, ty) ->
        let v =
          B.alloc bld ~name ~region:Stack ~initialized:false
            ~asize:(asize_of env ty)
        in
        (name, v))
      decls;
  env.ret_void <- fd.Ast.fret = Ast.Tvoid;
  List.iter (lower_stmt env) fd.Ast.fbody;
  (* Fallthrough returns. *)
  if not (B.terminated bld) then
    B.terminate bld (if env.ret_void then Ret None else Ret (Some (Cst 0)));
  (* Any dead blocks opened after returns also need terminators. *)
  ignore (B.finish bld);
  pop_scope env

let lower_program (ast : Ast.program) : Ir.Prog.t =
  let prog = Ir.Prog.create () in
  let env =
    {
      prog;
      structs = Hashtbl.create 8;
      fsigs = Hashtbl.create 8;
      global_tys = Hashtbl.create 8;
      bld = B.create prog ~fname:"!none";
      scopes = [];
      decls = [];
      break_tgt = [];
      cont_tgt = [];
      ret_void = false;
    }
  in
  List.iter
    (function
      | Ast.Istruct s -> Hashtbl.replace env.structs s.Ast.sname s.Ast.sfields
      | Ast.Iglobal g -> Hashtbl.replace env.global_tys g.Ast.gdname g.Ast.gdty
      | Ast.Ifunc f ->
        if List.mem f.Ast.fdname builtin_names then
          fail "%s is a reserved builtin name" f.Ast.fdname;
        Hashtbl.replace env.fsigs f.Ast.fdname (List.length f.Ast.fparams))
    ast;
  List.iter
    (function
      | Ast.Iglobal g ->
        let gsize =
          match g.Ast.gdty with
          | Ast.Tarr (n, t) -> Array_of (Cst (n * sizeof env t))
          | ty -> asize_of env ty
        in
        Ir.Prog.add_global prog
          { gname = g.Ast.gdname; gsize;
            ginit = (match g.Ast.gdinit with Some n -> [ n ] | None -> []) }
      | Ast.Istruct _ | Ast.Ifunc _ -> ())
    ast;
  List.iter (function Ast.Ifunc f -> lower_func env f | _ -> ()) ast;
  (* Dead blocks created after returns may be unterminated only if lowering
     had a bug; Builder.finish already asserted otherwise. The rest of the
     structure is checked once, with the SSA discipline, after the
     optimizer ([Ir.Verify.check_ssa]). *)
  Ir.Verify.check_main prog;
  prog

(** Front-end entry point: parse and lower a TinyC source string. *)
let compile (src : string) : Ir.Prog.t =
  lower_program (Parser.parse_program src)
