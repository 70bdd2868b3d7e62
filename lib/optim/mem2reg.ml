(* Promotion of memory to registers — LLVM's mem2reg, the "M" of the paper's
   O0+IM baseline.

   A stack allocation is promotable when it is a single-cell scalar whose
   address is only ever the direct pointer operand of loads and stores. Such
   slots become SSA top-level variables (Var_TL); unpromoted ones remain the
   program's address-taken stack variables (Var_AT).

   Promotion is the standard algorithm: phi placement at the iterated
   dominance frontier of the store blocks, pruned by liveness, then a
   renaming walk over the dominator tree. A load before any store yields
   [Undef] — this is where C's uninitialized locals become explicit
   undefined values.

   Functions are small (tens of blocks, a handful of promotable allocs) and
   numerous, so the cost is in per-function tables, not in asymptotics
   (DESIGN.md §13). The variable-indexed tables — each variable's alloc
   index, whether its address escapes, and the replacement of each
   promoted load's result — are allocated once per program; after each
   function the slots and replacements it set are reset, and a stamp per
   function retires the escape marks. Per-alloc liveness is flat [Bytes]
   over (alloc, block), solved backwards over predecessors; the IDF marks
   blocks in a stamped array; the phis of a function are its newest
   variables, so a phi's alloc is found from its id alone. A function of
   one block that returns needs no dominance and no phis. An instruction
   is rebuilt only when one of its operands changes. Every variable and
   label is created in the same order as the version kept in
   test/frontend_reference.ml, so the output is the same to the byte. *)

open Ir.Types
module P = Ir.Prog
module Instr = Ir.Instr

type stats = { promoted : int; phis_inserted : int }

(* [slot] states below 0; an index [k >= 0] names a promoted alloc. *)
let not_alloc = -1
let candidate = -2

(* Marks a variable whose loads were not replaced; compared with [==]. *)
let no_subst = Var (-1)

type scratch = {
  mutable slot : int array;        (* var -> alloc state or index *)
  mutable escapes : int array;     (* var -> [stamp] if its address escapes *)
  mutable stamp : int;             (* the function being promoted *)
  mutable subst : operand array;   (* promoted load result -> its value *)
  mutable substituted : var list;  (* the [subst] entries to reset *)
}

let grow a n dummy =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) dummy in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The tables outlive the program ([Ir.Scratch]): allocated per program,
   they made [Experiment.run] over 2,000 generated programs 8–11%
   slower. *)
let kept =
  Ir.Scratch.make (fun () ->
      { slot = [||]; escapes = [||]; stamp = 0; subst = [||]; substituted = [] })

(* Clean tables covering [nvars] variables; the escape marks are
   retired by the stamp, which only grows. *)
let scratch nvars =
  let sc = Ir.Scratch.get kept in
  sc.slot <- grow sc.slot nvars not_alloc;
  sc.escapes <- grow sc.escapes nvars 0;
  sc.subst <- grow sc.subst nvars no_subst;
  (* A run that raised may have left entries set. *)
  Array.fill sc.slot 0 (Array.length sc.slot) not_alloc;
  Array.fill sc.subst 0 (Array.length sc.subst) no_subst;
  sc.substituted <- [];
  sc

(* The function's promotable allocs in IR order, each with its index set
   in [slot]: one pass marks the candidates and every variable used other
   than as the pointer of a load or store. A duplicate definition keeps
   its first position and its last record. The caller resets [slot] for
   every alloc in [cands]. *)
let promotable_allocs sc (f : func) (cands : alloc list ref) : alloc array =
  let escape v = sc.escapes.(v) <- sc.stamp in
  let check_operand o = match o with Var v -> escape v | Cst _ | Undef -> () in
  Array.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.kind with
          | Alloc ({ region = Stack; asize = Fields 1; _ } as a) ->
            sc.slot.(a.adst) <- candidate;
            cands := a :: !cands
          | Load (_, _) -> () (* a load's pointer operand is a sanctioned use *)
          | Store (_, o) -> check_operand o (* storing the address escapes it *)
          | Copy (_, o) | Unop (_, _, o) | Output o -> check_operand o
          | Binop (_, _, o1, o2) -> check_operand o1; check_operand o2
          | Field_addr (_, y, _) -> escape y
          | Index_addr (_, y, o) -> escape y; check_operand o
          | Call c ->
            List.iter check_operand c.cargs;
            (match c.callee with Indirect v -> escape v | Direct _ -> ())
          | Phi (_, arms) -> List.iter (fun (_, o) -> check_operand o) arms
          | Alloc a -> (
            match a.asize with Array_of o -> check_operand o | Fields _ -> ())
          | Const _ | Global_addr _ | Func_addr _ | Input _ -> ())
        b.instrs;
      match b.term.tkind with
      | Br (o, _, _) | Ret (Some o) -> check_operand o
      | Ret None | Jmp _ -> ())
    f.blocks;
  if !cands == [] then [||]
  else begin
    let cands_in_order = List.rev !cands in
    let allocs = ref [] and n = ref 0 in
    List.iter
      (fun (a : alloc) ->
        if sc.slot.(a.adst) = candidate && sc.escapes.(a.adst) <> sc.stamp then begin
          sc.slot.(a.adst) <- !n;
          incr n;
          allocs := a :: !allocs
        end)
      cands_in_order;
    let allocs = Array.of_list (List.rev !allocs) in
    List.iter
      (fun (a : alloc) ->
        let k = sc.slot.(a.adst) in
        if k >= 0 then allocs.(k) <- a)
      cands_in_order;
    allocs
  end

(* Does [k] read a variable whose loads were replaced? If not, rewriting
   its operands would rebuild it unchanged. [subst] covers the variables
   of the program as it came in; the phis' variables lie past its end and
   are never replaced. *)
let var_subst sc x = x < Array.length sc.subst && sc.subst.(x) != no_subst
let operand_subst sc = function Var x -> var_subst sc x | Cst _ | Undef -> false

let needs_subst sc (k : instr_kind) =
  match k with
  | Const _ | Global_addr _ | Func_addr _ | Input _ -> false
  | Copy (_, a) | Unop (_, _, a) | Output a -> operand_subst sc a
  | Binop (_, _, a, b) -> operand_subst sc a || operand_subst sc b
  | Alloc a -> (
    match a.asize with Array_of a -> operand_subst sc a | Fields _ -> false)
  | Load (_, y) | Field_addr (_, y, _) -> var_subst sc y
  | Store (x, a) | Index_addr (_, x, a) -> var_subst sc x || operand_subst sc a
  | Call c ->
    (match c.callee with Indirect x -> var_subst sc x | Direct _ -> false)
    || List.exists (operand_subst sc) c.cargs
  | Phi (_, arms) -> List.exists (fun (_, a) -> operand_subst sc a) arms

let rec resolve sc (o : operand) : operand =
  match o with
  | Var v when var_subst sc v -> resolve sc sc.subst.(v)
  | Var _ | Cst _ | Undef -> o

(* Phis of the promoted allocs, placed with their arms [Undef]; returns
   the alloc of each new phi variable, the [n] newest ones. *)
let place_phis p sc (f : func) dom (allocs : alloc array) : int array =
  let nalloc = Array.length allocs in
  let slot = sc.slot in
  let nb = Array.length f.blocks in
  let preds = Analysis.Dominance.preds dom in
  (* Store blocks per alloc (newest first, a block once per store), and
     per (alloc, block) whether a load reads the value on entry and
     whether a store kills it. *)
  let def_blocks = Array.make nalloc [] in
  let nstores = ref 0 in
  let upward = Bytes.make (nalloc * nb) '\000' in
  let killed = Bytes.make (nalloc * nb) '\000' in
  Array.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.kind with
          | Load (_, v) when slot.(v) >= 0 ->
            let kb = (slot.(v) * nb) + b.bid in
            if Bytes.get killed kb = '\000' then Bytes.set upward kb '\001'
          | Store (v, _) when slot.(v) >= 0 ->
            let k = slot.(v) in
            def_blocks.(k) <- b.bid :: def_blocks.(k);
            incr nstores;
            Bytes.set killed ((k * nb) + b.bid) '\001'
          | _ -> ())
        b.instrs)
    f.blocks;
  (* Liveness on entry, per alloc: the least fixpoint of
     live(b) = upward(b) || (not killed(b) && live(some successor)),
     reached by a backward worklist over predecessors. *)
  let live = Bytes.copy upward in
  let work = Array.make (nb + !nstores) 0 in
  for k = 0 to nalloc - 1 do
    let top = ref 0 in
    for b = 0 to nb - 1 do
      if Bytes.get upward ((k * nb) + b) <> '\000' then begin
        work.(!top) <- b;
        incr top
      end
    done;
    while !top > 0 do
      decr top;
      let b = work.(!top) in
      List.iter
        (fun pb ->
          let kp = (k * nb) + pb in
          if Bytes.get killed kp = '\000' && Bytes.get live kp = '\000' then begin
            Bytes.set live kp '\001';
            work.(!top) <- pb;
            incr top
          end)
        preds.(b)
    done
  done;
  (* Iterated dominance frontier, pruned by liveness: a FIFO seeded with
     the store blocks, each frontier block entered once per alloc. *)
  let phi_blocks = Array.make nalloc [] in
  let placed = Array.make nb (-1) in
  for k = 0 to nalloc - 1 do
    let head = ref 0 and tail = ref 0 in
    let push b = work.(!tail) <- b; incr tail in
    List.iter push def_blocks.(k);
    while !head < !tail do
      let b = work.(!head) in
      incr head;
      List.iter
        (fun df ->
          if placed.(df) <> k then begin
            placed.(df) <- k;
            if Bytes.get live ((k * nb) + df) <> '\000' then
              phi_blocks.(k) <- df :: phi_blocks.(k);
            push df
          end)
        (Analysis.Dominance.frontier dom b)
    done
  done;
  (* Materialize phi instructions (operands filled during renaming). *)
  let phi_alloc = ref [] in
  for k = 0 to nalloc - 1 do
    let aname = allocs.(k).aname in
    List.iter
      (fun b ->
        if Analysis.Dominance.reachable dom b then begin
          let v = P.fresh_var p ~name:aname ~owner:f.fname in
          phi_alloc := k :: !phi_alloc;
          let blk = f.blocks.(b) in
          let arms = List.map (fun pb -> (pb, Undef)) preds.(b) in
          blk.instrs <-
            { lbl = P.fresh_label p; kind = Phi (v, arms) } :: blk.instrs
        end)
      phi_blocks.(k)
  done;
  Array.of_list (List.rev !phi_alloc)

(* The renaming walk over the dominator tree ([children]); [phi_alloc]
   gives the alloc of each of the newest variables, the phis just placed. *)
let rename p sc (f : func) nalloc children (phi_alloc : int array) =
  let slot = sc.slot in
  let nphi = Array.length phi_alloc in
  let first_phi = P.nvars p - nphi in
  let alloc_of_phi x =
    if x >= first_phi && x < first_phi + nphi then phi_alloc.(x - first_phi)
    else -1
  in
  (* Each alloc's current value is the head of its stack; [pushed] logs
     which stacks a block pushed, to pop them on the way back up. *)
  let stacks = Array.make nalloc [ (Undef : operand) ] in
  let pushed = ref [] in
  let push k o =
    stacks.(k) <- o :: stacks.(k);
    pushed := k :: !pushed
  in
  let resolve o = resolve sc o in
  (* Does the instruction stay? Promoted loads, stores and allocs go. *)
  let keep ins =
    match ins.kind with
    | Phi (x, _) ->
      (* Promoted phis define their alloc's current value. *)
      let k = alloc_of_phi x in
      if k >= 0 then push k (Var x);
      true
    | Load (x, v) when slot.(v) >= 0 ->
      sc.subst.(x) <- List.hd stacks.(slot.(v));
      sc.substituted <- x :: sc.substituted;
      false
    | Store (v, o) when slot.(v) >= 0 ->
      push slot.(v) (resolve o);
      false
    | Alloc a when slot.(a.adst) >= 0 -> false
    | kind ->
      if needs_subst sc kind then ins.kind <- Instr.map_operands resolve kind;
      true
  in
  (* [List.filter keep], in order, sharing the tail after the last
     instruction dropped. *)
  let rec rename_all = function
    | [] -> []
    | ins :: rest as l ->
      let kept = keep ins in
      let rest' = rename_all rest in
      if not kept then rest' else if rest' == rest then l else ins :: rest'
  in
  (* Set [b]'s arm of the promoted phis that lead a successor's block. *)
  let rec fill b = function
    | ({ kind = Phi (x, arms); _ } as ins) :: rest when alloc_of_phi x >= 0 ->
      let cur = List.hd stacks.(alloc_of_phi x) in
      ins.kind <- Phi (x, List.map (fun (pb, o) -> if pb = b then (pb, cur) else (pb, o)) arms);
      fill b rest
    | _ -> ()
  in
  let rec walk (b : blockid) =
    let blk = f.blocks.(b) in
    let mark = !pushed in
    blk.instrs <- rename_all blk.instrs;
    (match blk.term.tkind with
    | Br (a, _, _) | Ret (Some a) when operand_subst sc a ->
      blk.term.tkind <- Instr.map_term_operands resolve blk.term.tkind
    | Br _ | Jmp _ | Ret _ -> ());
    if nphi > 0 then Ir.Func.iter_succs (fun s -> fill b f.blocks.(s).instrs) f b;
    List.iter walk (children b);
    while !pushed != mark do
      match !pushed with
      | k :: rest ->
        stacks.(k) <- List.tl stacks.(k);
        pushed := rest
      | [] -> assert false
    done
  in
  walk 0;
  (* Phi operands referencing promoted loads in predecessor blocks were
     resolved during the walk via [stacks]; any remaining subst targets in
     phi arms are cleaned here. *)
  if sc.substituted != [] then
    Ir.Func.iter_instrs
      (fun _ ins ->
        if needs_subst sc ins.kind then
          ins.kind <- Instr.map_operands resolve ins.kind)
      f

(* A function of one block that returns has no joins: no phi is placed
   and the dominator tree is that block alone. *)
let straight_line (f : func) =
  Array.length f.blocks = 1
  && match f.blocks.(0).term.tkind with Ret _ -> true | Br _ | Jmp _ -> false

let run_func p sc (f : func) : func * stats =
  let f = Simplify_cfg.remove_unreachable f in
  sc.stamp <- sc.stamp + 1;
  let cands = ref [] in
  let allocs = promotable_allocs sc f cands in
  let nalloc = Array.length allocs in
  let nphi =
    if nalloc = 0 then 0
    else if straight_line f then begin
      rename p sc f nalloc (fun _ -> []) [||];
      0
    end
    else begin
      let dom = Analysis.Dominance.compute f in
      let phi_alloc = place_phis p sc f dom allocs in
      rename p sc f nalloc (Analysis.Dominance.children dom) phi_alloc;
      Array.length phi_alloc
    end
  in
  List.iter (fun (a : alloc) -> sc.slot.(a.adst) <- not_alloc) !cands;
  List.iter (fun x -> sc.subst.(x) <- no_subst) sc.substituted;
  sc.substituted <- [];
  (f, { promoted = nalloc; phis_inserted = nphi })

let run (p : P.t) : stats =
  let sc = scratch (P.nvars p) in
  let promoted = ref 0 and phis = ref 0 in
  P.map_funcs
    (fun f ->
      let f', s = run_func p sc f in
      promoted := !promoted + s.promoted;
      phis := !phis + s.phis_inserted;
      f')
    p;
  { promoted = !promoted; phis_inserted = !phis }
