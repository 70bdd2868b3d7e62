(* Iterative inlining of functions that take function-pointer arguments —
   the "I" in the paper's O0+IM setting ("the merged bitcode is transformed
   by iteratively inlining the functions with at least one function pointer
   argument to simplify the call graph, excluding those functions that are
   directly recursive").

   Inlining runs before mem2reg, so the program has no phis yet; return
   values are communicated through a fresh stack slot that mem2reg later
   promotes. *)

open Ir.Types
module P = Ir.Prog
module Instr = Ir.Instr

(* A parameter is a function-pointer argument if its value flows to an
   indirect-call position inside the function. Inlining runs before mem2reg,
   when parameters are still spilled to stack slots, so the trace follows
   copies, loads and stores (slot <- value, value <- slot). *)
let has_fp_param (f : func) : bool =
  let flows_from : (var, var list) Hashtbl.t = Hashtbl.create 16 in
  let add x y =
    Hashtbl.replace flows_from x
      (y :: Option.value ~default:[] (Hashtbl.find_opt flows_from x))
  in
  let indirect_callees = ref [] in
  Ir.Func.iter_instrs
    (fun _ i ->
      (match i.kind with
      | Copy (x, Var y) -> add x y
      | Load (x, y) -> add x y
      | Store (x, Var y) -> add x y
      | _ -> ());
      match i.kind with
      | Call { callee = Indirect v; _ } -> indirect_callees := v :: !indirect_callees
      | _ -> ())
    f;
  let rec roots v seen =
    if List.mem v seen then [ v ]
    else
      match Hashtbl.find_opt flows_from v with
      | Some ys -> List.concat_map (fun y -> roots y (v :: seen)) ys
      | None -> [ v ]
  in
  !indirect_callees
  |> List.concat_map (fun v -> roots v [])
  |> List.exists (fun v -> List.mem v f.params)

let is_directly_recursive (f : func) : bool =
  let r = ref false in
  Ir.Func.iter_instrs
    (fun _ i ->
      match i.kind with
      | Call { callee = Direct g; _ } when g = f.fname -> r := true
      | _ -> ())
    f;
  !r

let size_of (f : func) : int =
  Array.fold_left (fun acc b -> acc + List.length b.instrs + 1) 0 f.blocks

(* Clone [callee]'s body into [caller] at the call site [at] (label), binding
   arguments and return value. Returns the rewritten caller. *)
let inline_at (p : P.t) (caller : func) (at : label) (callee : func) : func =
  (* Locate the call. *)
  let call_block = ref (-1) and call_info = ref None in
  Array.iter
    (fun b ->
      List.iter
        (fun i ->
          if i.lbl = at then begin
            call_block := b.bid;
            match i.kind with
            | Call c -> call_info := Some c
            | _ -> Diag.error Diag.Optim "Inline.inline_at: label is not a call"
          end)
        b.instrs)
    caller.blocks;
  let c = Option.get !call_info in
  let nb = Array.length caller.blocks in
  let callee_nb = Array.length callee.blocks in
  let entry_clone = nb in          (* callee block b -> nb + b *)
  let cont = nb + callee_nb in     (* continuation block *)
  (* Fresh variables for everything the callee defines. *)
  let vmap : (var, var) Hashtbl.t = Hashtbl.create 32 in
  let clone_var v =
    match Hashtbl.find_opt vmap v with
    | Some v' -> v'
    | None ->
      let vi = P.varinfo p v in
      let v' = P.fresh_var p ~name:(vi.vname ^ "$" ^ callee.fname) ~owner:caller.fname in
      Hashtbl.replace vmap v v';
      v'
  in
  let clone_operand = function
    | Var v -> Var (clone_var v)
    | (Cst _ | Undef) as o -> o
  in
  (* Return-value slot (promoted away by mem2reg for scalar returns). *)
  let ret_slot =
    match c.cdst with
    | Some _ ->
      Some (P.fresh_var p ~name:("ret$" ^ callee.fname) ~owner:caller.fname)
    | None -> None
  in
  let blk = caller.blocks.(!call_block) in
  let rec split pre = function
    | [] -> Diag.error Diag.Optim "Inline.inline_at: call vanished"
    | i :: rest when i.lbl = at -> (List.rev pre, rest)
    | i :: rest -> split (i :: pre) rest
  in
  let pre, post = split [] blk.instrs in
  (* Argument binding + optional return slot allocation, appended to [pre]. *)
  let binds =
    (match ret_slot with
    | Some rs ->
      [ { lbl = P.fresh_label p;
          kind =
            Alloc
              { adst = rs; aname = "ret$" ^ callee.fname; region = Stack;
                initialized = false; asize = Fields 1 } } ]
    | None -> [])
    @ List.map2
        (fun prm arg ->
          { lbl = P.fresh_label p; kind = Copy (clone_var prm, arg) })
        callee.params c.cargs
  in
  let old_term = blk.term in
  blk.instrs <- pre @ binds;
  blk.term <- { tlbl = P.fresh_label p; tkind = Jmp entry_clone };
  (* Clone callee blocks. *)
  let remap_bid b = nb + b in
  (* [map_operands] renames every use, including pointer operands of loads,
     stores, address computations and indirect callees; the defined variable
     is rebound explicitly. *)
  let rebind_def k =
    match Instr.def_of k with
    | None -> k
    | Some d -> (
      let d' = clone_var d in
      match k with
      | Const (_, n) -> Const (d', n)
      | Copy (_, o) -> Copy (d', o)
      | Unop (_, u, o) -> Unop (d', u, o)
      | Binop (_, b, o1, o2) -> Binop (d', b, o1, o2)
      | Alloc a -> Alloc { a with adst = d' }
      | Load (_, y) -> Load (d', y)
      | Field_addr (_, y, n) -> Field_addr (d', y, n)
      | Index_addr (_, y, o) -> Index_addr (d', y, o)
      | Global_addr (_, g) -> Global_addr (d', g)
      | Func_addr (_, g) -> Func_addr (d', g)
      | Input _ -> Input d'
      | Call cc -> Call { cc with cdst = Some d' }
      | Phi (_, arms) -> Phi (d', arms)
      | Store _ | Output _ -> k)
  in
  let cloned =
    Array.map
      (fun (b : block) ->
        let instrs =
          List.map
            (fun i ->
              let kind =
                match i.kind with
                | Phi (x, arms) ->
                  Phi
                    ( clone_var x,
                      List.map
                        (fun (pb, o) -> (remap_bid pb, clone_operand o))
                        arms )
                | k -> rebind_def (Instr.map_operands clone_operand k)
              in
              { lbl = P.fresh_label p; kind })
            b.instrs
        in
        let term =
          match b.term.tkind with
          | Br (o, b1, b2) ->
            { tlbl = P.fresh_label p;
              tkind = Br (clone_operand o, remap_bid b1, remap_bid b2) }
          | Jmp b1 -> { tlbl = P.fresh_label p; tkind = Jmp (remap_bid b1) }
          | Ret _ -> { tlbl = P.fresh_label p; tkind = Jmp cont }
        in
        (* Returns become stores to the return slot followed by a jump. *)
        let instrs =
          match b.term.tkind with
          | Ret ov -> (
            match (ret_slot, ov) with
            | Some rs, Some o ->
              instrs
              @ [ { lbl = P.fresh_label p; kind = Store (rs, clone_operand o) } ]
            | Some rs, None ->
              instrs @ [ { lbl = P.fresh_label p; kind = Store (rs, Undef) } ]
            | None, _ -> instrs)
          | Br _ | Jmp _ -> instrs
        in
        { bid = remap_bid b.bid; instrs; term })
      callee.blocks
  in
  (* Continuation block: load the return slot into the call destination. *)
  let cont_instrs =
    (match (c.cdst, ret_slot) with
    | Some d, Some rs -> [ { lbl = P.fresh_label p; kind = Load (d, rs) } ]
    | _ -> [])
    @ post
  in
  let cont_block = { bid = cont; instrs = cont_instrs; term = old_term } in
  { caller with blocks = Array.concat [ caller.blocks; cloned; [| cont_block |] ] }

(* Clone-operand must also rename variables *used* by cloned instructions.
   [Instr.map_operands] handles value operands; pointer operands of
   loads/stores and address bases are handled explicitly above. *)

type stats = { inlined_calls : int; rounds : int }

let max_rounds = 4
let max_callee_size = 400

let run (p : P.t) : stats =
  let total = ref 0 in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < max_rounds do
    incr rounds;
    continue_ := false;
    let targets =
      P.fold_funcs
        (fun acc f ->
          if
            f.fname <> "main" && has_fp_param f
            && (not (is_directly_recursive f))
            && size_of f <= max_callee_size
          then f.fname :: acc
          else acc)
        [] p
    in
    if targets <> [] then
      P.iter_funcs
        (fun caller ->
          let rec one_round () =
            let found = ref None in
            Ir.Func.iter_instrs
              (fun _ i ->
                match (i.kind, !found) with
                | Call { callee = Direct g; _ }, None
                  when List.mem g targets && g <> caller.fname ->
                  found := Some (i.lbl, g)
                | _ -> ())
              caller;
            match !found with
            | Some (lbl, g) ->
              let callee = P.get_func p g in
              let caller' = inline_at p caller lbl callee in
              P.update_func p caller';
              incr total;
              continue_ := true;
              (* Re-fetch and keep inlining within this caller. *)
              one_round_on (P.get_func p caller.fname)
            | None -> ()
          and one_round_on c =
            let found = ref None in
            Ir.Func.iter_instrs
              (fun _ i ->
                match (i.kind, !found) with
                | Call { callee = Direct g; _ }, None
                  when List.mem g targets && g <> c.fname ->
                  found := Some (i.lbl, g)
                | _ -> ())
              c;
            match !found with
            | Some (lbl, g) ->
              let callee = P.get_func p g in
              let c' = inline_at p c lbl callee in
              P.update_func p c';
              incr total;
              one_round_on (P.get_func p c.fname)
            | None -> ()
          in
          (* A definition that a later one of its name shadows is never
             called; [update_func] would write over the later one. *)
          if P.get_func p caller.fname == caller then one_round ())
        p
  done;
  { inlined_calls = !total; rounds = !rounds }
