(* Test-only references for the frontend, kept as they were before it was
   made dense: the tokenizer that allocated an option per character and
   returned a list, the CHK dominance frontiers built eagerly with a
   [List.mem] per insertion, and mem2reg with per-function hash tables,
   [List.nth] alloc lookups, a fold over every phi variable per phi and a
   round-robin liveness fixpoint. The equivalence tests compare the
   library's versions against these. *)

open Ir.Types
module P = Ir.Prog
module Instr = Ir.Instr

(* ---- tokenizer ---- *)

module Lexer = struct
  open Tinyc

  type t = {
    src : string;
    mutable pos : int;
    mutable line : int;
    mutable col : int;
  }

  let create src = { src; pos = 0; line = 1; col = 1 }

  let fail lx fmt =
    Diag.error ~loc:{ Diag.line = lx.line; col = lx.col } Diag.Lex fmt

  let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

  let peek2 lx =
    if lx.pos + 1 < String.length lx.src then Some lx.src.[lx.pos + 1] else None

  let advance lx =
    (match peek lx with
    | Some '\n' ->
      lx.line <- lx.line + 1;
      lx.col <- 1
    | Some _ -> lx.col <- lx.col + 1
    | None -> ());
    lx.pos <- lx.pos + 1

  let is_digit c = c >= '0' && c <= '9'
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_ident_char c = is_ident_start c || is_digit c

  let rec skip_ws lx =
    match peek lx with
    | Some (' ' | '\t' | '\r' | '\n') ->
      advance lx;
      skip_ws lx
    | Some '/' when peek2 lx = Some '/' ->
      while peek lx <> None && peek lx <> Some '\n' do advance lx done;
      skip_ws lx
    | Some '/' when peek2 lx = Some '*' ->
      advance lx; advance lx;
      let rec loop () =
        match (peek lx, peek2 lx) with
        | Some '*', Some '/' -> advance lx; advance lx
        | Some _, _ -> advance lx; loop ()
        | None, _ -> fail lx "unterminated comment"
      in
      loop ();
      skip_ws lx
    | _ -> ()

  let keyword = function
    | "int" -> Some Token.KW_INT
    | "void" -> Some Token.KW_VOID
    | "struct" -> Some Token.KW_STRUCT
    | "if" -> Some Token.KW_IF
    | "else" -> Some Token.KW_ELSE
    | "while" -> Some Token.KW_WHILE
    | "for" -> Some Token.KW_FOR
    | "return" -> Some Token.KW_RETURN
    | "break" -> Some Token.KW_BREAK
    | "continue" -> Some Token.KW_CONTINUE
    | "sizeof" -> Some Token.KW_SIZEOF
    | _ -> None

  let next (lx : t) : Token.spanned =
    skip_ws lx;
    let line = lx.line and col = lx.col in
    let mk tok = { Token.tok; line; col } in
    match peek lx with
    | None -> mk Token.EOF
    | Some c when is_digit c ->
      let start = lx.pos in
      while (match peek lx with Some c -> is_digit c | None -> false) do advance lx done;
      mk (Token.INT (int_of_string (String.sub lx.src start (lx.pos - start))))
    | Some c when is_ident_start c ->
      let start = lx.pos in
      while (match peek lx with Some c -> is_ident_char c | None -> false) do advance lx done;
      let s = String.sub lx.src start (lx.pos - start) in
      mk (match keyword s with Some k -> k | None -> Token.IDENT s)
    | Some c ->
      let two expect tok1 tok0 =
        advance lx;
        if peek lx = Some expect then begin advance lx; mk tok1 end else mk tok0
      in
      (match c with
      | '(' -> advance lx; mk Token.LPAREN
      | ')' -> advance lx; mk Token.RPAREN
      | '{' -> advance lx; mk Token.LBRACE
      | '}' -> advance lx; mk Token.RBRACE
      | '[' -> advance lx; mk Token.LBRACKET
      | ']' -> advance lx; mk Token.RBRACKET
      | ';' -> advance lx; mk Token.SEMI
      | '?' -> advance lx; mk Token.QUESTION
      | ':' -> advance lx; mk Token.COLON
      | ',' -> advance lx; mk Token.COMMA
      | '.' -> advance lx; mk Token.DOT
      | '+' -> two '=' Token.PLUSEQ Token.PLUS
      | '-' ->
        advance lx;
        (match peek lx with
        | Some '>' -> advance lx; mk Token.ARROW
        | Some '=' -> advance lx; mk Token.MINUSEQ
        | _ -> mk Token.MINUS)
      | '*' -> two '=' Token.STAREQ Token.STAR
      | '/' -> advance lx; mk Token.SLASH
      | '%' -> advance lx; mk Token.PERCENT
      | '~' -> advance lx; mk Token.TILDE
      | '^' -> advance lx; mk Token.CARET
      | '&' -> two '&' Token.ANDAND Token.AMP
      | '|' -> two '|' Token.OROR Token.PIPE
      | '!' -> two '=' Token.NE Token.BANG
      | '=' -> two '=' Token.EQ Token.ASSIGN
      | '<' ->
        advance lx;
        (match peek lx with
        | Some '=' -> advance lx; mk Token.LE
        | Some '<' -> advance lx; mk Token.SHL
        | _ -> mk Token.LT)
      | '>' ->
        advance lx;
        (match peek lx with
        | Some '=' -> advance lx; mk Token.GE
        | Some '>' -> advance lx; mk Token.SHR
        | _ -> mk Token.GT)
      | c -> fail lx "unexpected character %C" c)

  (** Tokenize a whole source string. *)
  let tokenize (src : string) : Token.spanned list =
    let lx = create src in
    let rec loop acc =
      let t = next lx in
      if t.Token.tok = Token.EOF then List.rev (t :: acc) else loop (t :: acc)
    in
    loop []
end

(* ---- dominance frontiers ---- *)

(* For each join point, walk up from each reachable pred until the idom of
   the join. *)
let frontiers (f : func) : blockid list array =
  let module D = Analysis.Dominance in
  let dom = D.compute f in
  let n = Array.length f.blocks in
  let preds = Ir.Func.preds f in
  let idom b = match D.idom dom b with Some d -> d | None -> -1 in
  let frontier = Array.make n [] in
  for b = 0 to n - 1 do
    if D.reachable dom b && List.length preds.(b) >= 2 then
      List.iter
        (fun p ->
          if D.reachable dom p then begin
            let runner = ref p in
            while !runner <> (if b = 0 then -1 else idom b) && !runner <> -1 do
              if not (List.mem b frontier.(!runner)) then
                frontier.(!runner) <- b :: frontier.(!runner);
              runner := if !runner = 0 then -1 else idom !runner
            done
          end)
        preds.(b)
  done;
  frontier

(* ---- mem2reg ---- *)

type stats = Optim.Mem2reg.stats = { promoted : int; phis_inserted : int }

let promotable_allocs (f : func) : (var, alloc) Hashtbl.t =
  let candidates = Hashtbl.create 16 in
  Ir.Func.iter_instrs
    (fun _ i ->
      match i.kind with
      | Alloc ({ region = Stack; asize = Fields 1; _ } as a) ->
        Hashtbl.replace candidates a.adst a
      | _ -> ())
    f;
  let disqualify v = Hashtbl.remove candidates v in
  let check_operand o =
    match o with Var v -> disqualify v | Cst _ | Undef -> ()
  in
  Ir.Func.iter_instrs
    (fun _ i ->
      match i.kind with
      | Load (_, _) -> () (* a load's pointer operand is a sanctioned use *)
      | Store (_, o) -> check_operand o (* storing the address escapes it *)
      | Copy (_, o) | Unop (_, _, o) -> check_operand o
      | Binop (_, _, o1, o2) -> check_operand o1; check_operand o2
      | Field_addr (_, y, _) -> disqualify y
      | Index_addr (_, y, o) -> disqualify y; check_operand o
      | Call c ->
        List.iter check_operand c.cargs;
        (match c.callee with Indirect v -> disqualify v | Direct _ -> ())
      | Phi (_, arms) -> List.iter (fun (_, o) -> check_operand o) arms
      | Output o -> check_operand o
      | Alloc a -> (
        match a.asize with Array_of o -> check_operand o | Fields _ -> ())
      | Const _ | Global_addr _ | Func_addr _ | Input _ -> ())
    f;
  Array.iter
    (fun b ->
      match b.term.tkind with
      | Br (o, _, _) -> check_operand o
      | Ret (Some o) -> check_operand o
      | Ret None | Jmp _ -> ())
    f.blocks;
  candidates

let run_func (p : P.t) (f : func) : func * stats =
  let f = Optim.Simplify_cfg.remove_unreachable f in
  let allocs = promotable_allocs f in
  if Hashtbl.length allocs = 0 then (f, { promoted = 0; phis_inserted = 0 })
  else begin
    let dom = Analysis.Dominance.compute f in
    let frontier = frontiers f in
    (* Promote in the allocs' IR order, not Hashtbl order: bucket layout
       hashes raw var ids, which come from a process-global counter, so
       hash order makes this function's phi placement depend on how many
       variables *earlier* functions happened to allocate. IR order is
       content-determined, keeping every downstream artifact — SSA names,
       VFG shape — stable under edits elsewhere. *)
    let alloc_ids =
      let acc = ref [] in
      Ir.Func.iter_instrs
        (fun _ i ->
          match i.kind with
          | Alloc a when Hashtbl.mem allocs a.adst ->
            if not (List.memq a.adst !acc) then acc := a.adst :: !acc
          | _ -> ())
        f;
      List.rev !acc
    in
    let nalloc = List.length alloc_ids in
    let index_of = Hashtbl.create 16 in
    List.iteri (fun i v -> Hashtbl.replace index_of v i) alloc_ids;
    (* Blocks containing stores, per alloc. *)
    let def_blocks = Array.make nalloc [] in
    Ir.Func.iter_instrs
      (fun b i ->
        match i.kind with
        | Store (v, _) when Hashtbl.mem allocs v ->
          let k = Hashtbl.find index_of v in
          def_blocks.(k) <- b.bid :: def_blocks.(k)
        | _ -> ())
      f;
    (* Per-alloc liveness, so phi placement is pruned (as in LLVM): a phi is
       only placed where the promoted variable is live-in. *)
    let nb_blocks = Array.length f.blocks in
    let upward_exposed = Array.make_matrix nalloc nb_blocks false in
    let killed = Array.make_matrix nalloc nb_blocks false in
    Array.iter
      (fun b ->
        List.iter
          (fun i ->
            match i.kind with
            | Load (_, v) when Hashtbl.mem allocs v ->
              let k = Hashtbl.find index_of v in
              if not killed.(k).(b.bid) then upward_exposed.(k).(b.bid) <- true
            | Store (v, _) when Hashtbl.mem allocs v ->
              let k = Hashtbl.find index_of v in
              killed.(k).(b.bid) <- true
            | _ -> ())
          b.instrs)
      f.blocks;
    let live_in = Array.make_matrix nalloc nb_blocks false in
    let changed = ref true in
    while !changed do
      changed := false;
      for b = nb_blocks - 1 downto 0 do
        let succ_live k =
          List.exists (fun s -> live_in.(k).(s)) (Ir.Func.succs f b)
        in
        for k = 0 to nalloc - 1 do
          let v = upward_exposed.(k).(b) || ((not killed.(k).(b)) && succ_live k) in
          if v && not live_in.(k).(b) then begin
            live_in.(k).(b) <- true;
            changed := true
          end
        done
      done
    done;
    (* Iterated dominance frontier, pruned by liveness. *)
    let phi_blocks = Array.make nalloc [] in
    for k = 0 to nalloc - 1 do
      let placed = Hashtbl.create 8 in
      let work = Queue.create () in
      List.iter (fun b -> Queue.push b work) def_blocks.(k);
      while not (Queue.is_empty work) do
        let b = Queue.pop work in
        List.iter
          (fun df ->
            if not (Hashtbl.mem placed df) then begin
              Hashtbl.replace placed df ();
              if live_in.(k).(df) then phi_blocks.(k) <- df :: phi_blocks.(k);
              Queue.push df work
            end)
          frontier.(b)
      done
    done;
    (* Materialize phi instructions (operands filled during renaming). *)
    let preds = Ir.Func.preds f in
    let phi_var : (blockid * int, var) Hashtbl.t = Hashtbl.create 16 in
    let phi_count = ref 0 in
    for k = 0 to nalloc - 1 do
      let aname = (Hashtbl.find allocs (List.nth alloc_ids k)).aname in
      List.iter
        (fun b ->
          if Analysis.Dominance.reachable dom b then begin
            let v = P.fresh_var p ~name:aname ~owner:f.fname in
            Hashtbl.replace phi_var (b, k) v;
            incr phi_count;
            let blk = f.blocks.(b) in
            let arms = List.map (fun pb -> (pb, Undef)) preds.(b) in
            blk.instrs <-
              { lbl = P.fresh_label p; kind = Phi (v, arms) } :: blk.instrs
          end)
        phi_blocks.(k)
    done;
    (* Renaming walk. [subst] replaces promoted load results. *)
    let stacks = Array.make nalloc [ (Undef : operand) ] in
    let subst : (var, operand) Hashtbl.t = Hashtbl.create 64 in
    let rec resolve (o : operand) : operand =
      match o with
      | Var v -> (
        match Hashtbl.find_opt subst v with
        | Some o' -> resolve o'
        | None -> o)
      | Cst _ | Undef -> o
    in
    let rec walk (b : blockid) =
      let blk = f.blocks.(b) in
      let pushed = Array.make nalloc 0 in
      let keep =
        List.filter
          (fun ins ->
            match ins.kind with
            | Phi (x, _) -> (
              (* Promoted phis define their alloc's current value. *)
              match
                Hashtbl.fold
                  (fun (pb, k) v acc -> if pb = b && v = x then Some k else acc)
                  phi_var None
              with
              | Some k ->
                stacks.(k) <- Var x :: stacks.(k);
                pushed.(k) <- pushed.(k) + 1;
                true
              | None -> true)
            | Load (x, v) when Hashtbl.mem allocs v ->
              let k = Hashtbl.find index_of v in
              Hashtbl.replace subst x (List.hd stacks.(k));
              false
            | Store (v, o) when Hashtbl.mem allocs v ->
              let k = Hashtbl.find index_of v in
              stacks.(k) <- resolve o :: stacks.(k);
              pushed.(k) <- pushed.(k) + 1;
              false
            | Alloc a when Hashtbl.mem allocs a.adst -> false
            | _ ->
              ins.kind <- Instr.map_operands resolve ins.kind;
              true)
          blk.instrs
      in
      blk.instrs <- keep;
      blk.term.tkind <- Instr.map_term_operands resolve blk.term.tkind;
      (* Fill phi operands of successors. *)
      List.iter
        (fun s ->
          for k = 0 to nalloc - 1 do
            match Hashtbl.find_opt phi_var (s, k) with
            | Some v ->
              let sblk = f.blocks.(s) in
              List.iter
                (fun ins ->
                  match ins.kind with
                  | Phi (x, arms) when x = v ->
                    ins.kind <-
                      Phi
                        ( x,
                          List.map
                            (fun (pb, o) ->
                              if pb = b then (pb, List.hd stacks.(k)) else (pb, o))
                            arms )
                  | _ -> ())
                sblk.instrs
            | None -> ()
          done)
        (Ir.Func.succs f b);
      List.iter walk (Analysis.Dominance.children dom b);
      for k = 0 to nalloc - 1 do
        for _ = 1 to pushed.(k) do
          stacks.(k) <- List.tl stacks.(k)
        done
      done
    in
    walk 0;
    (* Phi operands referencing promoted loads in predecessor blocks were
       resolved during the walk via [stacks]; any remaining subst targets in
       phi arms are cleaned here. *)
    Ir.Func.iter_instrs
      (fun _ ins -> ins.kind <- Instr.map_operands resolve ins.kind)
      f;
    (f, { promoted = nalloc; phis_inserted = !phi_count })
  end

let run (p : P.t) : stats =
  let total = ref { promoted = 0; phis_inserted = 0 } in
  P.iter_funcs
    (fun f ->
      let f', s = run_func p f in
      P.update_func p f';
      total :=
        {
          promoted = !total.promoted + s.promoted;
          phis_inserted = !total.phis_inserted + s.phis_inserted;
        })
    p;
  !total
