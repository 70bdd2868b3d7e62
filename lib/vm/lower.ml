(* Lowering: the interpreter's slot-resolved compiled form
   ([Runtime.Interp.cprog]) down to the flat bytecode of [Bytecode].

   The input is what the interpreter runs: a program's
   [Interp.compile_base] with one plan put on by [Interp.attach]. The VM
   runs one lane only; a multi-lane program is rejected. Sharing
   that front means every subtle lowering decision — slot assignment,
   folding a phi's shadow item into the phi, check-label patching — is
   shared with the interpreter, so engine equivalence tests compare
   execution strategies, not two compilers.

   Shapes handled here:

   - Every instruction, terminator and plan action lowers to one opcode.
   - Parallel phis become per-edge move sequences: for each CFG edge into
     a block with leading phis, a trampoline copies each phi's statically
     selected arm into a scratch slot, then moves every scratch slot into
     its phi and runs that phi's residual actions, then jumps to the
     shared block body. Reading every arm before any write is the
     interpreter's order, so no phi can observe another's new value. Edges
     into phi-less blocks branch straight to the body.
   - Plan actions become SH_* / CHECK opcodes in place; an instruction
     with pre actions hands its step bit to the first one.
   - Cost-model counters become per-block static deltas plus a per-call
     entry delta (see bytecode.ml); opcodes carry none of them. *)

module I = Runtime.Interp
module B = Bytecode

type buf = { mutable a : int array; mutable n : int }

let newbuf () = { a = Array.make 256 0; n = 0 }

let emit b v =
  if b.n >= Array.length b.a then begin
    let a = Array.make (2 * Array.length b.a) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- v;
  b.n <- b.n + 1

let contents b = Array.sub b.a 0 b.n

(* General value operand encoding. *)
let rop_enc = function
  | I.Rc n -> (0, n)
  | I.Rs s -> (1, s)
  | I.Ru -> (2, 0)

let sop_enc = function
  | I.Sc b -> (0, if b then 1 else 0)
  | I.Ss s -> (1, s)

(* The folded shadow phi of a one-lane program, if planned. *)
let phi_shadow (sh : I.cphi_shadow array) =
  if Array.length sh = 0 then None else Some sh.(0).I.sharms

(* ------------------------------------------------------------------ *)
(* Static counter deltas                                               *)
(* ------------------------------------------------------------------ *)

let acc_action (d : int array) (a : I.caction) =
  let bump f n = d.(f) <- d.(f) + n in
  match a.act with
  | I.CSet_var (_, rhs) ->
    bump B.d_sh_reg 1;
    (match rhs with
    | I.CRconst _ -> ()
    | I.CRvar _ | I.CRglobal _ | I.CRphi _ -> bump B.d_sh_reg_reads 1
    | I.CRconj ys -> bump B.d_sh_reg_reads (Array.length ys)
    | I.CRmem _ -> bump B.d_sh_mem 1)
  | I.CSet_mem _ | I.CSet_mem_const _ -> bump B.d_sh_mem 1
  | I.CSet_mem_object _ -> bump B.d_sh_obj 1
  | I.CSet_global (_, s) ->
    bump B.d_sh_reg 1;
    (match s with I.Ss _ -> bump B.d_sh_reg_reads 1 | I.Sc _ -> ())
  | I.CCheck _ -> bump B.d_sh_check 1

let acc_actions d acts = Array.iter (acc_action d) acts

let acc_kind (d : int array) (k : I.ckind) =
  let bump f = d.(f) <- d.(f) + 1 in
  match k with
  | I.CConst _ | I.CCopy _ | I.CUnop _ | I.CBinop _ | I.CField _ | I.CIndex _
  | I.CGlobaladdr _ | I.CFuncaddr _ | I.CPhi _ ->
    bump B.d_alu
  | I.CLoad _ | I.CStore _ -> bump B.d_mem
  | I.CAlloc _ -> bump B.d_alloc (* alloc_cells is dynamic *)
  | I.CCall _ -> bump B.d_call
  | I.COutput _ | I.CInput _ -> bump B.d_io

(* The whole block's delta: leading phis (value + folded shadow + residual
   actions), body instructions with their pre/post actions, terminator
   actions and the terminator itself. *)
let block_delta (cb : I.cblock) : int array =
  let d = Array.make B.ndelta 0 in
  Array.iter
    (fun (ci : I.cinstr) ->
      acc_actions d ci.pre;
      acc_kind d ci.ckind;
      (match ci.ckind with
      | I.CPhi { sh = [| _ |]; _ } ->
        d.(B.d_sh_reg) <- d.(B.d_sh_reg) + 1;
        d.(B.d_sh_reg_reads) <- d.(B.d_sh_reg_reads) + 1
      | _ -> ());
      acc_actions d ci.post)
    cb.body;
  acc_actions d cb.term_pre;
  (match cb.cterm with
  | I.CTBr _ -> d.(B.d_branch) <- d.(B.d_branch) + 1
  | I.CTRet _ -> d.(B.d_call) <- d.(B.d_call) + 1
  | I.CTJmp _ -> ());
  d

(* ------------------------------------------------------------------ *)
(* Function lowering                                                   *)
(* ------------------------------------------------------------------ *)

let leading_phis (cb : I.cblock) : int =
  let n = Array.length cb.body in
  let i = ref 0 in
  while !i < n && (match cb.body.(!i).ckind with I.CPhi _ -> true | _ -> false) do
    incr i
  done;
  !i

type ctx = {
  intern : string -> int;            (* name table *)
  nfuncs : int;                      (* functions defined *)
}

let lower_func (ctx : ctx) ~(block0 : int) (f : I.cfunc) : B.func =
  let b = newbuf () in
  let nblocks = Array.length f.cblocks in
  let nphis = Array.map leading_phis f.cblocks in
  let scratch = Array.fold_left max 0 nphis in
  let body_pc = Array.make nblocks (-1) in
  (* Branch-target pc words to patch once trampoline pcs are known:
     (word index, src block, dst block). *)
  let patches = ref [] in
  let emit_target ~src ~dst =
    (* The jump counts the target's execution; gidx first, then the pc. *)
    emit b (block0 + dst);
    patches := (b.n, src, dst) :: !patches;
    emit b 0
  in
  let stepped op ~step = if step then op lor B.step_bit else op in
  (* [step] puts the interpreter-step bit on this action's opcode. *)
  let emit_action ?(step = false) (a : I.caction) =
    let eop op = emit b (stepped op ~step) in
    match a.act with
    | I.CSet_var (x, rhs) -> (
      match rhs with
      | I.CRconst c -> eop B.o_sh_mov; emit b x; emit b 0; emit b (if c then 1 else 0)
      | I.CRvar y -> eop B.o_sh_mov; emit b x; emit b 1; emit b y
      | I.CRconj ys ->
        eop B.o_sh_conj; emit b x; emit b (Array.length ys);
        Array.iter (emit b) ys
      | I.CRmem y -> eop B.o_sh_mem_rd; emit b x; emit b y
      | I.CRglobal i -> eop B.o_sh_global_rd; emit b x; emit b i
      | I.CRphi arms ->
        eop B.o_sh_phi; emit b x; emit b (Array.length arms);
        Array.iter
          (fun (pb, s) ->
            let sk, sv = sop_enc s in
            emit b pb; emit b sk; emit b sv)
          arms)
    | I.CSet_mem (x, s) ->
      let sk, sv = sop_enc s in
      eop B.o_sh_mem_wr; emit b x; emit b sk; emit b sv
    | I.CSet_mem_const (x, c) ->
      eop B.o_sh_mem_wr; emit b x; emit b 0; emit b (if c then 1 else 0)
    | I.CSet_mem_object (x, c) ->
      eop B.o_sh_obj; emit b x; emit b (if c then 1 else 0)
    | I.CSet_global (i, s) ->
      let sk, sv = sop_enc s in
      eop B.o_sh_global_wr; emit b i; emit b sk; emit b sv
    | I.CCheck (slot, lbl) ->
      eop B.o_check;
      emit b (match slot with Some s -> s | None -> -1);
      emit b lbl
  in
  let emit_actions acts = Array.iter (fun a -> emit_action a) acts in
  (* Actions where the first one carries the instruction's step bit. *)
  let emit_actions_stepped acts =
    Array.iteri (fun i a -> emit_action ~step:(i = 0) a) acts
  in
  let emit_kind ~step (ci : I.cinstr) =
    let eop op = emit b (stepped op ~step) in
    match ci.ckind with
    | I.CConst (x, n) -> eop B.o_const; emit b x; emit b n
    | I.CCopy (x, o) ->
      let ok, ov = rop_enc o in
      eop B.o_copy; emit b x; emit b ok; emit b ov
    | I.CUnop (x, u, o) ->
      let ok, ov = rop_enc o in
      eop B.o_unop; emit b x; emit b (Ir.Types.unop_index u); emit b ok; emit b ov
    | I.CBinop (x, bop, o1, o2) ->
      let ok1, ov1 = rop_enc o1 and ok2, ov2 = rop_enc o2 in
      eop B.o_binop; emit b x; emit b (Ir.Types.binop_index bop);
      emit b ok1; emit b ov1; emit b ok2; emit b ov2
    | I.CAlloc { dst; init; size; name } -> (
      match size with
      | I.CFields n ->
        eop B.o_allocf; emit b dst; emit b n;
        emit b (if init then 1 else 0); emit b (ctx.intern name)
      | I.CArray o ->
        let ok, ov = rop_enc o in
        eop B.o_alloca; emit b dst; emit b ok; emit b ov;
        emit b (if init then 1 else 0); emit b (ctx.intern name))
    | I.CLoad (x, y) -> eop B.o_load; emit b x; emit b y; emit b ci.clbl
    | I.CStore (x, o) ->
      let ok, ov = rop_enc o in
      eop B.o_store; emit b x; emit b ok; emit b ov; emit b ci.clbl
    | I.CField (x, y, k) -> eop B.o_field; emit b x; emit b y; emit b k
    | I.CIndex (x, y, o) ->
      let ok, ov = rop_enc o in
      eop B.o_index; emit b x; emit b y; emit b ok; emit b ov
    | I.CGlobaladdr (x, objid) -> eop B.o_globaladdr; emit b x; emit b objid
    | I.CFuncaddr (x, fi) -> eop B.o_funcaddr; emit b x; emit b fi
    | I.CCall { dst; callee; args } ->
      let opc, target =
        match callee with
        | I.CDirect fi -> (B.o_call, if fi < ctx.nfuncs then fi else -1 - fi)
        | I.CIndirect s -> (B.o_callind, s)
      in
      eop opc;
      emit b (match dst with Some x -> x | None -> -1);
      emit b target;
      emit b (Array.length args);
      Array.iter
        (fun o ->
          let ok, ov = rop_enc o in
          emit b ok; emit b ov)
        args
    | I.CPhi _ -> eop B.o_bad_phi
    | I.COutput o ->
      let ok, ov = rop_enc o in
      eop B.o_output; emit b ok; emit b ov
    | I.CInput x -> eop B.o_input; emit b x
  in
  let emit_instr (ci : I.cinstr) =
    if Array.length ci.pre > 0 then begin
      emit_actions_stepped ci.pre;
      emit_kind ~step:false ci
    end
    else emit_kind ~step:true ci;
    emit_actions ci.post
  in
  (* Phi resolution for edge src -> dst. The selected arm of each phi is
     known statically. Every arm is read into the phi's scratch slot
     first, then each phi takes its scratch value and runs its residual
     actions: all reads precede all writes, as in the interpreter's two
     loops. *)
  let emit_phi_edge ~src ~(dst : int) =
    let cb = f.cblocks.(dst) in
    let np = nphis.(dst) in
    let arm_of arms =
      let k = ref (-1) in
      Array.iteri (fun j (pb, _) -> if !k < 0 && pb = src then k := j) arms;
      !k
    in
    let phi i =
      match cb.body.(i).ckind with
      | I.CPhi { dst = d; arms; sh } -> (d, arms, phi_shadow sh)
      | _ -> assert false
    in
    for i = 0 to np - 1 do
      let _, arms, sharms = phi i in
      let scr = f.nslots + i in
      let k = arm_of arms in
      let ok, ov = if k >= 0 then rop_enc (snd arms.(k)) else (3, 0) in
      emit b B.o_copy; emit b scr; emit b ok; emit b ov;
      match sharms with
      | Some sharms ->
        let k = arm_of sharms in
        let sk, sv = if k >= 0 then sop_enc (snd sharms.(k)) else (0, 1) in
        emit b B.o_sh_mov; emit b scr; emit b sk; emit b sv
      | None -> ()
    done;
    for i = 0 to np - 1 do
      let d, _, sharms = phi i in
      let scr = f.nslots + i in
      emit b B.o_copy; emit b d; emit b 1; emit b scr;
      if sharms <> None then begin
        emit b B.o_sh_mov; emit b d; emit b 1; emit b scr
      end;
      emit_actions cb.body.(i).pre;
      emit_actions cb.body.(i).post
    done
  in
  let emit_term (cb : I.cblock) bid =
    if Array.length cb.term_pre > 0 then emit_actions_stepped cb.term_pre;
    let step = Array.length cb.term_pre = 0 in
    match cb.cterm with
    | I.CTBr (o, b1, b2) ->
      let ok, ov = rop_enc o in
      emit b (stepped B.o_br ~step);
      emit b ok; emit b ov; emit b cb.term_lbl; emit b bid;
      emit_target ~src:bid ~dst:b1;
      emit_target ~src:bid ~dst:b2
    | I.CTJmp b1 ->
      emit b (stepped B.o_jmp ~step);
      emit b bid;
      emit_target ~src:bid ~dst:b1
    | I.CTRet o ->
      let ok, ov = match o with Some o -> rop_enc o | None -> (3, 0) in
      emit b (stepped B.o_ret ~step);
      emit b ok; emit b ov
  in
  (* Prologue: entry actions, then the virtual entry edge (prev = 0) into
     block 0, one execution of block 0 counted, falling through. *)
  emit_actions f.entry_acts;
  if nblocks > 0 then begin
    if nphis.(0) > 0 then emit_phi_edge ~src:0 ~dst:0;
    emit b B.o_block;
    emit b block0
  end;
  Array.iteri
    (fun bid (cb : I.cblock) ->
      body_pc.(bid) <- b.n;
      for i = nphis.(bid) to Array.length cb.body - 1 do
        emit_instr cb.body.(i)
      done;
      emit_term cb bid)
    f.cblocks;
  (* Edge trampolines for phi-receiving targets, then patch all targets. *)
  let tramp = Hashtbl.create 16 in
  List.iter
    (fun (_, src, dst) ->
      if nphis.(dst) > 0 && not (Hashtbl.mem tramp (src, dst)) then begin
        Hashtbl.replace tramp (src, dst) b.n;
        emit_phi_edge ~src ~dst;
        emit b B.o_goto;
        emit b body_pc.(dst)
      end)
    (List.rev !patches);
  List.iter
    (fun (at, src, dst) ->
      b.a.(at) <-
        (if nphis.(dst) > 0 then Hashtbl.find tramp (src, dst)
         else body_pc.(dst)))
    !patches;
  let entry_delta = Array.make B.ndelta 0 in
  acc_actions entry_delta f.entry_acts;
  {
    B.fname = f.cfname;
    code = contents b;
    nslots = f.nslots + scratch;
    base_slots = f.nslots;
    params = f.cparams;
    entry_delta;
    nblocks;
    block0;
  }

(* ------------------------------------------------------------------ *)

(* Highest label mentioned anywhere (labels are dense from the front end,
   but CCheck can carry the synthetic -2); sizes the exec label bitmaps. *)
let max_label (cp : I.cprog) : int =
  let m = ref 0 in
  let act (a : I.caction) =
    match a.act with I.CCheck (_, l) -> if l > !m then m := l | _ -> ()
  in
  Array.iter
    (fun (cf : I.cfunc) ->
      Array.iter (fun a -> act a) cf.entry_acts;
      Array.iter
        (fun (cb : I.cblock) ->
          if cb.term_lbl > !m then m := cb.term_lbl;
          Array.iter (fun a -> act a) cb.term_pre;
          Array.iter
            (fun (ci : I.cinstr) ->
              if ci.clbl > !m then m := ci.clbl;
              Array.iter (fun a -> act a) ci.pre;
              Array.iter (fun a -> act a) ci.post)
            cb.body)
        cf.cblocks)
    cp.funcs;
  !m

let lower (cp : I.cprog) : B.prog =
  if cp.nlanes <> 1 then
    invalid_arg
      (Printf.sprintf "Vm.Lower.lower: %d lanes; the VM runs one plan"
         cp.nlanes);
  let names = ref [] in
  let nnames = ref 0 in
  let name_tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let intern s =
    match Hashtbl.find_opt name_tbl s with
    | Some i -> i
    | None ->
      let i = !nnames in
      incr nnames;
      Hashtbl.replace name_tbl s i;
      names := s :: !names;
      i
  in
  let nfuncs = Array.length cp.funcs in
  let fun_index = Hashtbl.create 16 in
  Array.iteri (fun i (cf : I.cfunc) -> Hashtbl.replace fun_index cf.cfname i) cp.funcs;
  let ctx = { intern; nfuncs } in
  (* Intern every function name up front, in function index order, so a
     name's index is its function's and name2func covers them all. *)
  Array.iter (fun n -> ignore (intern n)) cp.fnames;
  let nblocks = ref 0 in
  let deltas = ref [] in
  let funcs =
    Array.map
      (fun (cf : I.cfunc) ->
        let block0 = !nblocks in
        nblocks := !nblocks + Array.length cf.cblocks;
        Array.iter (fun cb -> deltas := block_delta cb :: !deltas) cf.cblocks;
        lower_func ctx ~block0 cf)
      cp.funcs
  in
  let deltas_flat = Array.make (B.ndelta * !nblocks) 0 in
  List.iteri
    (fun rev_i d ->
      let i = !nblocks - 1 - rev_i in
      Array.blit d 0 deltas_flat (B.ndelta * i) B.ndelta)
    !deltas;
  let names_arr = Array.of_list (List.rev !names) in
  let name2func = Array.mapi (fun i _ -> if i < nfuncs then i else -1) names_arr in
  {
    B.funcs;
    fun_index;
    names = names_arr;
    name2func;
    main = Hashtbl.find fun_index "main";
    globals = cp.globals;
    global_objid = cp.global_objid;
    nglobal_slots = cp.nglobal_slots;
    has_shadow = cp.has_shadow;
    nlabels = max_label cp + 1;
    nblocks = !nblocks;
    deltas = deltas_flat;
  }
