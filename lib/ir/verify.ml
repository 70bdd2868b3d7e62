(* Well-formedness checks. [check] validates structural invariants; [check_ssa]
   additionally validates the single-assignment discipline once mem2reg has
   run. Raises [Ill_formed] with a diagnostic on violation. *)

open Types

(* Violations raise [Diag.Error] with phase [Diag.Ir]; [Ill_formed] is kept
   as an alias so callers can keep matching on the historical name. *)
exception Ill_formed = Diag.Error

let fail fmt = Diag.error Diag.Ir fmt

let check_func (p : Prog.t) (f : func) =
  let n = Array.length f.blocks in
  if n = 0 then fail "%s: no blocks" f.fname;
  Array.iteri
    (fun i b ->
      if b.bid <> i then fail "%s: block id %d at index %d" f.fname b.bid i;
      List.iter
        (fun s ->
          if s < 0 || s >= n then
            fail "%s: b%d jumps to nonexistent b%d" f.fname b.bid s)
        (Instr.term_succs b.term.tkind);
      List.iter
        (fun ins ->
          Instr.iter_uses
            (fun v ->
              if v < 0 || v >= Prog.nvars p then
                fail "%s: l%d uses unknown variable %d" f.fname ins.lbl v)
            ins.kind)
        b.instrs)
    f.blocks;
  (* Calls must target known functions with matching arity. *)
  Func.iter_instrs
    (fun _ ins ->
      match ins.kind with
      | Call { callee = Direct g; cargs; _ } -> (
        match Prog.find_func p g with
        | None -> fail "%s: call to unknown function %s" f.fname g
        | Some callee ->
          if List.length cargs <> List.length callee.params then
            fail "%s: call to %s with %d args (expected %d)" f.fname g
              (List.length cargs)
              (List.length callee.params))
      | _ -> ())
    f

let check (p : Prog.t) =
  if Prog.find_func p "main" = None then fail "no main function";
  Prog.iter_funcs (check_func p) p

(* SSA checks: unique defs; every phi has one operand per predecessor; every
   use is dominated by its definition.

   Definitions are marked in one variable-indexed array: [defined.(v) =
   stamp] when [v] is defined in the function being checked, whose stamp
   no other function shares. The array outlives the program
   ([Scratch]). *)

type scratch = { mutable defined : int array; mutable stamp : int }

let kept = Scratch.make (fun () -> { defined = [||]; stamp = 0 })

let define s v =
  if v >= Array.length s.defined then begin
    let a = Array.make (max (v + 1) (2 * Array.length s.defined)) 0 in
    Array.blit s.defined 0 a 0 (Array.length s.defined);
    s.defined <- a
  end;
  s.defined.(v) <- s.stamp

let is_defined s v = v < Array.length s.defined && s.defined.(v) = s.stamp

let check_ssa_func (p : Prog.t) s (f : func) =
  s.stamp <- s.stamp + 1;
  let preds = Func.preds f in
  List.iter (define s) f.params;
  Func.iter_instrs
    (fun _ ins ->
      match Instr.def_of ins.kind with
      | Some v ->
        if is_defined s v then
          fail "%s: variable %s defined twice" f.fname (Prog.var_name p v);
        define s v
      | None -> ())
    f;
  Array.iter
    (fun b ->
      let expected = lazy (List.sort compare preds.(b.bid)) in
      List.iter
        (fun ins ->
          match ins.kind with
          | Phi (_, ins_list) ->
            let expected = Lazy.force expected in
            let got = List.sort compare (List.map fst ins_list) in
            if expected <> got then
              fail "%s: phi in b%d has arms %s but preds %s" f.fname b.bid
                (String.concat "," (List.map string_of_int got))
                (String.concat "," (List.map string_of_int expected))
          | _ -> ())
        b.instrs)
    f.blocks;
  (* Dominance of uses: a lightweight check via reverse-postorder dataflow on
     "definitely assigned" sets would duplicate the Dominance module (which
     lives above this library), so we only verify that every used variable has
     some definition in this function or is a parameter/global-owned var. *)
  Func.iter_instrs
    (fun _ ins ->
      Instr.iter_uses
        (fun v ->
          if not (is_defined s v) then
            fail "%s: l%d uses %s which has no definition here" f.fname ins.lbl
              (Prog.var_name p v))
        ins.kind)
    f

let check_ssa (p : Prog.t) =
  check p;
  let s = Scratch.get kept in
  if Array.length s.defined < Prog.nvars p then s.defined <- Array.make (Prog.nvars p) 0;
  Prog.iter_funcs (check_ssa_func p s) p
