(* Well-formedness checks. [check] validates structural invariants;
   [check_ssa] validates them and, in the same walk, the single-assignment
   discipline once mem2reg has run. Raises [Ill_formed] with a diagnostic
   on violation.

   A function is walked once: its terminators (block ids and targets),
   then its blocks in order, each instruction and then the terminator's
   operand once. A use read before any
   definition of its variable is noted and looked up again when the walk
   ends, so a loop's phi arms need no second walk. The tables are indexed
   by variable or block and outlive the program ([Scratch]); definitions
   are stamped per function, so nothing is reset, and nothing is
   allocated per instruction or block unless a check fails. *)

open Types

(* Violations raise [Diag.Error] with phase [Diag.Ir]; [Ill_formed] is kept
   as an alias so callers can keep matching on the historical name. *)
exception Ill_formed = Diag.Error

let fail fmt = Diag.error Diag.Ir fmt

let check_main (p : Prog.t) =
  if Prog.find_func p "main" = None then fail "no main function"

type scratch = {
  mutable defined : int array;  (* var -> [stamp] when defined in the function *)
  mutable stamp : int;          (* the function being checked *)
  mutable pred_at : int array;  (* block -> start of its preds in [preds] *)
  mutable preds : int array;    (* predecessors, grouped by block, ascending *)
  mutable preds_of : int;       (* the stamp [preds] were gathered for *)
  mutable count : int array;    (* block -> preds placed; zero between uses *)
  mutable later : int array;    (* (var, label) of uses read before a def *)
  mutable nlater : int;
}

let kept =
  Scratch.make (fun () ->
      { defined = [||]; stamp = 0; pred_at = [||]; preds = [||]; preds_of = 0;
        count = [||]; later = [||]; nlater = 0 })

let define s v =
  s.defined <- Scratch.grow s.defined (v + 1) 0;
  s.defined.(v) <- s.stamp

let use p s ~ssa (f : func) lbl v =
  if v < 0 || v >= Prog.nvars p then
    fail "%s: l%d uses unknown variable %d" f.fname lbl v;
  if ssa && s.defined.(v) <> s.stamp then begin
    s.later <- Scratch.grow s.later ((2 * s.nlater) + 2) 0;
    s.later.(2 * s.nlater) <- v;
    s.later.((2 * s.nlater) + 1) <- lbl;
    s.nlater <- s.nlater + 1
  end

let use_op p s ~ssa f lbl = function
  | Var v -> use p s ~ssa f lbl v
  | Cst _ | Undef -> ()

let rec use_args p s ~ssa f lbl = function
  | [] -> ()
  | o :: rest -> use_op p s ~ssa f lbl o; use_args p s ~ssa f lbl rest

let rec use_arms p s ~ssa f lbl = function
  | [] -> ()
  | (_, o) :: rest -> use_op p s ~ssa f lbl o; use_arms p s ~ssa f lbl rest

(* Each block's predecessors, as [Func.preds] lists them, in [preds]. *)
let gather_preds s (f : func) =
  let n = Array.length f.blocks in
  s.pred_at <- Scratch.grow s.pred_at (n + 1) 0;
  s.count <- Scratch.grow s.count n 0;
  Array.fill s.pred_at 0 (n + 1) 0;
  let count t = s.pred_at.(t + 1) <- s.pred_at.(t + 1) + 1 in
  let place b t =
    s.preds.(s.pred_at.(t) + s.count.(t)) <- b;
    s.count.(t) <- s.count.(t) + 1
  in
  let edges g =
    for b = 0 to n - 1 do
      match f.blocks.(b).term.tkind with
      | Br (_, t1, t2) -> g b t1; g b t2
      | Jmp t -> g b t
      | Ret _ -> ()
    done
  in
  edges (fun _ t -> count t);
  for b = 1 to n do s.pred_at.(b) <- s.pred_at.(b) + s.pred_at.(b - 1) done;
  s.preds <- Scratch.grow s.preds s.pred_at.(n) 0;
  edges place;
  Array.fill s.count 0 n 0;
  s.preds_of <- s.stamp

let rec arm_count q = function
  | [] -> 0
  | (pb, _) :: rest -> (if pb = q then 1 else 0) + arm_count q rest

(* Are the phi's arm blocks [b]'s predecessors, as multisets? As many
   arms as predecessors, and each predecessor among the arms as often as
   among the predecessors. *)
let arms_match s (f : func) b arms =
  if s.preds_of <> s.stamp then gather_preds s f;
  let first = s.pred_at.(b) and last = s.pred_at.(b + 1) - 1 in
  let same = ref (List.compare_length_with arms (last - first + 1) = 0) in
  for k = first to last do
    let q = s.preds.(k) and n = ref 0 in
    for j = first to last do if s.preds.(j) = q then incr n done;
    if arm_count q arms <> !n then same := false
  done;
  !same

let ints l = String.concat "," (List.map string_of_int l)

let check_instr p s ~ssa (f : func) b ins =
  let lbl = ins.lbl in
  (match ins.kind with
  | Const _ | Global_addr _ | Func_addr _ | Input _ -> ()
  | Copy (_, o) | Unop (_, _, o) | Output o -> use_op p s ~ssa f lbl o
  | Binop (_, _, o1, o2) -> use_op p s ~ssa f lbl o1; use_op p s ~ssa f lbl o2
  | Alloc a -> (
    match a.asize with Array_of o -> use_op p s ~ssa f lbl o | Fields _ -> ())
  | Load (_, y) | Field_addr (_, y, _) -> use p s ~ssa f lbl y
  | Store (x, o) | Index_addr (_, x, o) -> use p s ~ssa f lbl x; use_op p s ~ssa f lbl o
  | Call { callee = Indirect v; cargs; _ } ->
    use p s ~ssa f lbl v;
    use_args p s ~ssa f lbl cargs
  | Call { callee = Direct g; cargs; _ } -> (
    use_args p s ~ssa f lbl cargs;
    (* Calls must target known functions with matching arity. *)
    match Prog.find_func p g with
    | None -> fail "%s: call to unknown function %s" f.fname g
    | Some callee ->
      if List.compare_lengths cargs callee.params <> 0 then
        fail "%s: call to %s with %d args (expected %d)" f.fname g
          (List.length cargs) (List.length callee.params))
  | Phi (_, arms) ->
    use_arms p s ~ssa f lbl arms;
    if ssa && not (arms_match s f b.bid arms) then
      fail "%s: phi in b%d has arms %s but preds %s" f.fname b.bid
        (ints (List.sort compare (List.map fst arms)))
        (ints (List.sort compare (Func.preds f).(b.bid))));
  if ssa then
    match Instr.def_var ins.kind with
    | -1 -> ()
    | v ->
      if v < Array.length s.defined && s.defined.(v) = s.stamp then
        fail "%s: variable %s defined twice" f.fname (Prog.var_name p v);
      define s v

let rec check_instrs p s ~ssa f b = function
  | [] -> ()
  | ins :: rest -> check_instr p s ~ssa f b ins; check_instrs p s ~ssa f b rest

let check_func p s ~ssa (f : func) =
  let n = Array.length f.blocks in
  if n = 0 then fail "%s: no blocks" f.fname;
  s.stamp <- s.stamp + 1;
  s.nlater <- 0;
  let target (b : block) t =
    if t < 0 || t >= n then fail "%s: b%d jumps to nonexistent b%d" f.fname b.bid t
  in
  for i = 0 to n - 1 do
    let b = f.blocks.(i) in
    if b.bid <> i then fail "%s: block id %d at index %d" f.fname b.bid i;
    match b.term.tkind with
    | Br (_, t1, t2) -> target b t1; target b t2
    | Jmp t -> target b t
    | Ret _ -> ()
  done;
  if ssa then List.iter (define s) f.params;
  Array.iter
    (fun b ->
      check_instrs p s ~ssa f b b.instrs;
      match b.term.tkind with
      | Br (o, _, _) | Ret (Some o) -> use_op p s ~ssa f b.term.tlbl o
      | Jmp _ | Ret None -> ())
    f.blocks;
  (* Dominance of uses: a lightweight check via reverse-postorder dataflow
     on "definitely assigned" sets would duplicate the Dominance module
     (which lives above this library), so we only verify that every used
     variable has some definition in this function or is a parameter. *)
  for k = 0 to s.nlater - 1 do
    let v = s.later.(2 * k) in
    if s.defined.(v) <> s.stamp then
      fail "%s: l%d uses %s which has no definition here" f.fname
        s.later.((2 * k) + 1) (Prog.var_name p v)
  done

let walk ~ssa (p : Prog.t) =
  check_main p;
  let s = Scratch.get kept in
  s.defined <- Scratch.grow s.defined (Prog.nvars p) 0;
  Prog.iter_funcs (check_func p s ~ssa) p

let check p = walk ~ssa:false p

(* SSA checks: unique defs; every phi has one operand per predecessor;
   every use is defined in its function. *)
let check_ssa p = walk ~ssa:true p
