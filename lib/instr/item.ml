(* Instrumentation items — the ⟨l, s̄⟩ pairs of §3.4: shadow statements
   attached before or after the labelled statement, executed by the runtime
   engine. Shadow registers live per frame keyed by (de-versioned at runtime:
   SSA) variable; shadow memory is keyed by address; sigma_g is the global
   relay array used for parameter/return shadow passing ([⊥-Para]/[⊥-Ret]). *)

open Ir.Types

(** Right-hand sides of shadow register updates. *)
type shadow_rhs =
  | Rconst of bool                      (* T (true = defined) or F *)
  | Rvar of var                         (* sigma(y) *)
  | Rconj of var list                   (* sigma(y1) /\ ... /\ sigma(yk); [] = T *)
  | Rmem of var                         (* sigma(asterisk y) *)
  | Rglobal of int                      (* sigma_g[i] *)
  | Rphi of (blockid * operand) list    (* shadow phi: pick arm by edge taken *)

(** Right-hand sides of shadow memory updates. *)
type mem_rhs =
  | Mconst of bool
  | Mop of operand                      (* sigma(operand); constants are T *)

type action =
  | Set_var of var * shadow_rhs         (* sigma(x) := rhs *)
  | Set_mem of var * mem_rhs            (* sigma(asterisk x) := rhs, one cell *)
  | Set_mem_object of var * bool        (* sigma of the whole object at *x *)
  | Set_global of int * operand         (* sigma_g[i] := sigma(op) *)
  | Check of operand                    (* E(l) := (sigma(op) = F) *)

type pos = Before | After

type item = { act : action; pos : pos }

(** A complete instrumentation plan for a program. *)
type plan = {
  items : item list array;             (* indexed by label *)
  entry_items : (fname, action list) Hashtbl.t; (* sigma(param) := ... on entry *)
  ret_slot : int;                      (* sigma_g index used for return values *)
}

let empty_plan (p : Ir.Prog.t) : plan =
  let max_arity =
    Ir.Prog.fold_funcs (fun acc f -> max acc (List.length f.params)) 0 p
  in
  {
    items = Array.make (Ir.Prog.nlabels p) [];
    entry_items = Hashtbl.create 16;
    ret_slot = max_arity;
  }

let same_op (a : operand) (b : operand) =
  match (a, b) with
  | Var x, Var y -> x = y
  | Cst m, Cst n -> m = n
  | Undef, Undef -> true
  | _ -> false

let rec same_list same xs ys =
  xs == ys
  ||
  match (xs, ys) with
  | x :: xs, y :: ys -> same x y && same_list same xs ys
  | _ -> false

let same_action (a : action) (b : action) =
  a == b
  ||
  match (a, b) with
  | Set_var (x, r), Set_var (y, q) -> (
    x = y
    &&
    match (r, q) with
    | Rconst c, Rconst d -> c = d
    | Rvar u, Rvar v | Rmem u, Rmem v | Rglobal u, Rglobal v -> u = v
    | Rconj us, Rconj vs -> same_list Int.equal us vs
    | Rphi r, Rphi q -> same_list (fun (b, o) (c, p) -> b = c && same_op o p) r q
    | _ -> false)
  | Set_mem (x, Mconst c), Set_mem (y, Mconst d) -> x = y && c = d
  | Set_mem (x, Mop o), Set_mem (y, Mop q) -> x = y && same_op o q
  | Set_mem_object (x, c), Set_mem_object (y, d) -> x = y && c = d
  | Set_global (i, o), Set_global (j, q) -> i = j && same_op o q
  | Check o, Check q -> same_op o q
  | _ -> false

let rec has pos act = function
  | [] -> false
  | it :: rest -> (it.pos = pos && same_action it.act act) || has pos act rest

(* Idempotent: a statement annotated with several chi locations would
   otherwise receive one copy of the same shadow statement per location. *)
let add (plan : plan) (lbl : label) (pos : pos) (act : action) =
  let items = plan.items.(lbl) in
  if not (has pos act items) then plan.items.(lbl) <- { act; pos } :: items

let add_entry (plan : plan) (fn : fname) (act : action) =
  let prev = Option.value ~default:[] (Hashtbl.find_opt plan.entry_items fn) in
  if not (List.exists (same_action act) prev) then
    Hashtbl.replace plan.entry_items fn (act :: prev)

let items_at (plan : plan) (lbl : label) ~(pos : pos) : action list =
  List.filter_map
    (fun it -> if it.pos = pos then Some it.act else None)
    (List.rev plan.items.(lbl))

let entry_items (plan : plan) (fn : fname) : action list =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt plan.entry_items fn))

(* ------------------------------------------------------------------ *)
(* Static statistics (Figure 11): shadow propagations are static reads
   of shadow state; checks are Check items.                            *)
(* ------------------------------------------------------------------ *)

type stats = { propagations : int; checks : int; total_items : int }

let rhs_reads = function
  | Rconst _ -> 0
  | Rvar _ | Rmem _ | Rglobal _ | Rphi _ -> 1
  | Rconj vs -> List.length vs

let action_reads = function
  | Set_var (_, rhs) -> rhs_reads rhs
  | Set_mem (_, Mconst _) -> 0
  | Set_mem (_, Mop (Var _)) -> 1
  | Set_mem (_, Mop (Cst _ | Undef)) -> 0
  | Set_mem_object _ -> 0
  | Set_global (_, Var _) -> 1
  | Set_global (_, (Cst _ | Undef)) -> 0
  | Check _ -> 1

let stats_of (plan : plan) : stats =
  let props = ref 0 and checks = ref 0 and total = ref 0 in
  let count act =
    incr total;
    match act with
    | Check _ -> incr checks
    | _ -> props := !props + action_reads act
  in
  Array.iter (fun items -> List.iter (fun it -> count it.act) items) plan.items;
  Hashtbl.iter (fun _ acts -> List.iter count acts) plan.entry_items;
  { propagations = !props; checks = !checks; total_items = !total }

(* ------------------------------------------------------------------ *)

let action_to_string (p : Ir.Prog.t) (a : action) : string =
  let v = Ir.Prog.var_name p in
  let op = function
    | Var x -> Printf.sprintf "s(%s)" (v x)
    | Cst _ -> "T"
    | Undef -> "F"
  in
  match a with
  | Set_var (x, Rconst b) -> Printf.sprintf "s(%s) := %s" (v x) (if b then "T" else "F")
  | Set_var (x, Rvar y) -> Printf.sprintf "s(%s) := s(%s)" (v x) (v y)
  | Set_var (x, Rconj ys) ->
    Printf.sprintf "s(%s) := %s" (v x)
      (if ys = [] then "T" else String.concat " & " (List.map (fun y -> "s(" ^ v y ^ ")") ys))
  | Set_var (x, Rmem y) -> Printf.sprintf "s(%s) := s(*%s)" (v x) (v y)
  | Set_var (x, Rglobal i) -> Printf.sprintf "s(%s) := sg[%d]" (v x) i
  | Set_var (x, Rphi arms) ->
    Printf.sprintf "s(%s) := sphi(%s)" (v x)
      (String.concat ", " (List.map (fun (b, o) -> Printf.sprintf "b%d:%s" b (op o)) arms))
  | Set_mem (x, Mconst b) -> Printf.sprintf "s(*%s) := %s" (v x) (if b then "T" else "F")
  | Set_mem (x, Mop o) -> Printf.sprintf "s(*%s) := %s" (v x) (op o)
  | Set_mem_object (x, b) -> Printf.sprintf "s(obj *%s) := %s" (v x) (if b then "T" else "F")
  | Set_global (i, o) -> Printf.sprintf "sg[%d] := %s" i (op o)
  | Check o -> Printf.sprintf "check %s" (op o)
