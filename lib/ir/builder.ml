(* Imperative construction of IR functions: used by the TinyC lowering, the
   workload generator and unit tests.

   A builder keeps a current block; [add] appends an instruction to it;
   [terminate] seals it. Blocks are created with forward references so
   structured control flow lowers naturally.

   Appends are O(1): while building, each block's [instrs] holds its
   instructions newest first, and [finish] reverses every block once.
   Blocks sit in a vector indexed by block id, so [switch_to] is O(1). *)

open Types

type t = {
  prog : Prog.t;
  fname : fname;
  mutable params : var list;
  blocks : block Vec.t; (* indexed by block id; [instrs] newest first *)
  mutable cur : block option;
}

(* New blocks copy this; [tlbl = -1] marks the term a placeholder until
   [terminate] seals the block. *)
let dummy_block = { bid = -1; instrs = []; term = { tlbl = -1; tkind = Ret None } }

let create prog ~fname =
  { prog; fname; params = []; blocks = Vec.create ~dummy:dummy_block; cur = None }

let prog b = b.prog

let fresh_var b name = Prog.fresh_var b.prog ~name ~owner:b.fname

let mk_param b name =
  let v = fresh_var b name in
  b.params <- b.params @ [ v ];
  v

(* Atomic so builders may run in parallel domains (the bench harness
   compiles independent programs concurrently); the counter only has to
   produce distinct names. *)
let temp_count = Atomic.make 0

(* ["t"] and the decimal digits of [n], as [Printf.sprintf "t%d" n]
   writes them, without the format interpreter. *)
let temp_name n =
  if n < 0 then "t" ^ string_of_int n
  else begin
    let len = ref 2 and m = ref n in
    while !m >= 10 do
      incr len;
      m := !m / 10
    done;
    let s = Bytes.create !len in
    Bytes.set s 0 't';
    let m = ref n in
    for i = !len - 1 downto 1 do
      Bytes.set s i (Char.chr (48 + (!m mod 10)));
      m := !m / 10
    done;
    Bytes.unsafe_to_string s
  end

let fresh_temp b = fresh_var b (temp_name (Atomic.fetch_and_add temp_count 1 + 1))

(** Create a new, empty block and return its id. It is not current yet. *)
let new_block b : blockid =
  Vec.push b.blocks { dummy_block with bid = Vec.length b.blocks }

(** Make [bid] the block instructions are appended to. *)
let switch_to b bid =
  if bid < 0 || bid >= Vec.length b.blocks then
    Diag.error Diag.Ir "Builder.switch_to: unknown block b%d in %s" bid b.fname;
  b.cur <- Some (Vec.get b.blocks bid)

let current b =
  match b.cur with
  | Some blk -> blk
  | None -> Diag.error Diag.Ir "Builder: no current block"

(** True when the current block has already been sealed by [terminate]. *)
let terminated b = (current b).term.tlbl >= 0

let add b kind =
  let blk = current b in
  assert (blk.term.tlbl < 0);
  let lbl = Prog.fresh_label b.prog in
  blk.instrs <- { lbl; kind } :: blk.instrs;
  lbl

let terminate b tkind =
  let blk = current b in
  assert (blk.term.tlbl < 0);
  blk.term <- { tlbl = Prog.fresh_label b.prog; tkind }

(* Convenience wrappers returning the defined variable. *)

let const b n =
  let x = fresh_temp b in
  ignore (add b (Const (x, n)));
  x

let copy b o =
  let x = fresh_temp b in
  ignore (add b (Copy (x, o)));
  x

let binop b op o1 o2 =
  let x = fresh_temp b in
  ignore (add b (Binop (x, op, o1, o2)));
  x

let unop b op o =
  let x = fresh_temp b in
  ignore (add b (Unop (x, op, o)));
  x

let alloc b ~name ~region ~initialized ~asize =
  let x = fresh_var b ("&" ^ name) in
  ignore (add b (Alloc { adst = x; aname = name; region; initialized; asize }));
  x

let load b y =
  let x = fresh_temp b in
  ignore (add b (Load (x, y)));
  x

let store b x o = ignore (add b (Store (x, o)))

let field_addr b y k =
  let x = fresh_temp b in
  ignore (add b (Field_addr (x, y, k)));
  x

let index_addr b y o =
  let x = fresh_temp b in
  ignore (add b (Index_addr (x, y, o)));
  x

let global_addr b g =
  let x = fresh_temp b in
  ignore (add b (Global_addr (x, g)));
  x

let func_addr b f =
  let x = fresh_temp b in
  ignore (add b (Func_addr (x, f)));
  x

let call b ~dst ~callee ~args = ignore (add b (Call { cdst = dst; callee; cargs = args }))

let call_val b ~callee ~args =
  let x = fresh_temp b in
  call b ~dst:(Some x) ~callee ~args;
  x

(** Seal the function and register it in the program. All blocks must be
    terminated. *)
let finish b : func =
  let blocks = Vec.to_array b.blocks in
  Array.iter
    (fun blk ->
      if blk.term.tlbl < 0 then
        Diag.error Diag.Ir "Builder.finish: block b%d of %s not terminated"
          blk.bid b.fname)
    blocks;
  Array.iter (fun blk -> blk.instrs <- List.rev blk.instrs) blocks;
  let f = { fname = b.fname; params = b.params; blocks } in
  Prog.add_func b.prog f;
  f
