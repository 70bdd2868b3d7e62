(* The bytecode container: a flat int-array code stream per function, an
   interned name table, and per-block counter deltas.

   The VM is the reference engine that the interpreter's lanes are checked
   against, so the format stays plain: every compiled instruction,
   terminator and instrumentation action lowers to exactly one general
   opcode, with no fused or operand-specialised forms.

   Encoding. Every operation is an opcode word followed by a fixed (or
   length-prefixed) run of operand words. Bit 8 ([step_bit]) of the opcode
   word marks operations that count as an interpreter step (body
   instructions and terminators; phi resolution and shadow actions do
   not). An instruction with pre actions puts its step bit on the first
   pre-action opcode, so the step is still counted before any of the
   instruction's work, like the interpreter. General value operands are
   (kind, payload) pairs:

     kind 0  constant            payload = the integer
     kind 1  register slot       payload = slot index (frame-relative)
     kind 2  undef               payload ignored (reads as 0xDEAD, undefined)
     kind 3  none/default        payload ignored ({0, undefined}: the missing
                                 phi arm and the value of [return;])

   Shadow operands are (kind, payload) with kind 0 = constant (payload
   0/1) and kind 1 = shadow slot.

   Instrumentation actions become dedicated opcodes at lowering time
   (SH_*, CHECK), so the dispatch loop never consults the plan.

   Block accounting rides on control transfer: JMP/BR operands name the
   target's global block index and the dispatch loop bumps its execution
   count while branching; only the function prologue needs a standalone
   BLOCK (the entry fallthrough). GOTO — the tail of a phi trampoline —
   transfers without counting, since the branch into the trampoline
   already counted the target.

   Cost-model counters are not updated per opcode: each block carries a
   static 11-field delta ([deltas], [d_*]) and the VM multiplies by the
   execution counts at the end — on a successful run a block entered is a
   block completed, so the sums equal the interpreter's per-instruction
   counts exactly. Only [alloc_cells] and [sh_obj_cells] depend on
   dynamic object sizes and are accumulated by their opcodes. *)

let step_bit = 256

(* Opcode 0 (HALT) is never emitted; executing it is an invalid-opcode error. *)

(* Instructions and terminators (may carry step_bit). *)
let o_const = 1          (* dst n *)
let o_copy = 2           (* dst ok ov          also the phi move *)
let o_unop = 3           (* dst u ok ov        u: 0 Neg, 1 Not, 2 Lnot *)
let o_binop = 4          (* dst bop ok1 ov1 ok2 ov2 *)
let o_allocf = 5         (* dst ncells init nameidx *)
let o_alloca = 6         (* dst ok ov init nameidx *)
let o_load = 7           (* dst psrc lbl *)
let o_store = 8          (* pdst ok ov lbl *)
let o_field = 9          (* dst src k *)
let o_index = 10         (* dst src ok ov *)
let o_globaladdr = 11    (* dst objid *)
let o_funcaddr = 12      (* dst nameidx *)
let o_call = 13          (* dst fref nargs (ok ov)*   fref<0: unknown -1-fref *)
let o_callind = 14       (* dst fslot nargs (ok ov)* *)
let o_output = 15        (* ok ov *)
let o_input = 16         (* dst *)
let o_br = 17            (* ok ov lbl srcbid gthen pcthen gelse pcelse *)
let o_jmp = 18           (* srcbid gidx pc *)
let o_ret = 19           (* ok ov *)
let o_bad_phi = 20       (* phi outside the block head: runtime error *)
let o_goto = 21          (* pc: trampoline -> shared block body, no count *)
let o_block = 22         (* gidx: count one execution (prologue fallthrough) *)

(* Instrumentation actions (never step). *)
let o_sh_mov = 23        (* dst sk sv *)
let o_sh_conj = 24       (* dst n s1..sn *)
let o_sh_mem_rd = 25     (* dst pslot *)
let o_sh_global_rd = 26  (* dst gidx *)
let o_sh_phi = 27        (* dst narms (pb sk sv)* *)
let o_sh_mem_wr = 28     (* pslot sk sv *)
let o_sh_obj = 29        (* pslot b *)
let o_sh_global_wr = 30  (* gidx sk sv *)
let o_check = 31         (* slot lbl              slot -1: undef operand *)

let n_opcodes = 32

(* Counter-delta field order (see Runtime.Counters.t); alloc_cells and
   sh_obj_cells are dynamic and excluded. *)
let d_alu = 0
let d_mem = 1
let d_branch = 2
let d_call = 3
let d_alloc = 4
let d_io = 5
let d_sh_reg = 6
let d_sh_reg_reads = 7
let d_sh_mem = 8
let d_sh_obj = 9
let d_sh_check = 10
let ndelta = 11

type func = {
  fname : string;
  code : int array;
  nslots : int;            (* frame size including phi scratch *)
  base_slots : int;        (* slots the interpreter would allocate *)
  params : int array;      (* parameter slots, in order *)
  entry_delta : int array; (* ndelta cells: entry_acts counters, per call *)
  nblocks : int;
  block0 : int;            (* global block index of this function's block 0 *)
}

type prog = {
  funcs : func array;              (* sorted by name *)
  fun_index : (string, int) Hashtbl.t;
  names : string array;            (* interned function + object names *)
  name2func : int array;           (* name index -> funcs index, or -1 *)
  main : int;
  globals : Ir.Types.global list;
  global_objid : (string, int) Hashtbl.t;
  nglobal_slots : int;             (* sigma_g size *)
  has_shadow : bool;               (* plan instruments anything at all *)
  nlabels : int;                   (* labels run -2 .. nlabels-1 (see exec) *)
  nblocks : int;                   (* total blocks across all functions *)
  deltas : int array;              (* ndelta * nblocks *)
}

(* ------------------------------------------------------------------ *)
(* Disassembly — raw and reversible                                    *)
(* ------------------------------------------------------------------ *)

let mnemonics =
  [|
    "HALT"; "CONST"; "COPY"; "UNOP"; "BINOP"; "ALLOCF"; "ALLOCA"; "LOAD";
    "STORE"; "FIELD"; "INDEX"; "GLOBALADDR"; "FUNCADDR"; "CALL"; "CALLIND";
    "OUTPUT"; "INPUT"; "BR"; "JMP"; "RET"; "BAD_PHI"; "GOTO"; "BLOCK";
    "SH_MOV"; "SH_CONJ"; "SH_MEM_RD"; "SH_GLOBAL_RD"; "SH_PHI"; "SH_MEM_WR";
    "SH_OBJ"; "SH_GLOBAL_WR"; "CHECK";
  |]

(* Fixed operand counts; -1 means length-prefixed (see [op_len]). *)
let operand_counts =
  [|
    0; 2; 3; 4; 6; 4; 5; 3; 4; 3; 4; 2; 2; -1; -1; 2; 1; 8; 3; 2; 0; 1; 1;
    3; -1; 2; 2; -1; 3; 2; 3; 2;
  |]

(* Total length in words of the operation at [pc], opcode included. *)
let op_len (code : int array) (pc : int) : int =
  let op = code.(pc) land 0xff in
  match operand_counts.(op) with
  | -1 ->
    if op = o_call || op = o_callind then 4 + (2 * code.(pc + 3))
    else if op = o_sh_conj then 3 + code.(pc + 2)
    else 3 + (3 * code.(pc + 2)) (* o_sh_phi *)
  | n -> n + 1

(* One operation as a reversible text line: "STEP+NAME w1 w2 ...", operand
   words printed raw. Returns the line and the next pc. *)
let disasm_op (code : int array) (pc : int) : string * int =
  let w = code.(pc) in
  let op = w land 0xff in
  let len = op_len code pc in
  let b = Buffer.create 32 in
  if w land step_bit <> 0 then Buffer.add_string b "STEP+";
  Buffer.add_string b
    (if op < Array.length mnemonics then mnemonics.(op)
     else Printf.sprintf "OP%d" op);
  for i = pc + 1 to pc + len - 1 do
    Buffer.add_char b ' ';
    Buffer.add_string b (string_of_int code.(i))
  done;
  (Buffer.contents b, pc + len)

let disasm (f : func) : string list =
  let rec go pc acc =
    if pc >= Array.length f.code then List.rev acc
    else
      let line, next = disasm_op f.code pc in
      go next (Printf.sprintf "%4d: %s" pc line :: acc)
  in
  go 0 []

(* Reassemble lines produced by [disasm] (the leading "pc:" is optional);
   the round trip [asm (disasm f) = f.code] is a structural self-check. *)
let asm (lines : string list) : int array =
  let mn = Hashtbl.create 64 in
  Array.iteri (fun i m -> Hashtbl.replace mn m i) mnemonics;
  let buf = ref [] in
  List.iter
    (fun line ->
      let toks =
        String.split_on_char ' ' line
        |> List.filter (fun s -> s <> "")
        |> List.filter (fun s -> not (String.length s > 0 && s.[String.length s - 1] = ':'))
      in
      match toks with
      | [] -> ()
      | name :: operands ->
        let step, name =
          match String.index_opt name '+' with
          | Some i ->
            (String.sub name 0 i = "STEP",
             String.sub name (i + 1) (String.length name - i - 1))
          | None -> (false, name)
        in
        let op =
          match Hashtbl.find_opt mn name with
          | Some o -> o
          | None -> invalid_arg ("asm: unknown mnemonic " ^ name)
        in
        buf := ((op lor (if step then step_bit else 0))
                :: List.map int_of_string operands)
               :: !buf)
    lines;
  Array.of_list (List.concat (List.rev !buf))
