(* Re-optimizing the inserted instrumentation: step (3) of the paper's
   O1/O2 methodology (§4.6) — "rerunning the optimization suite ... to
   further optimize the instrumentation code inserted". Both passes are
   worklists over dense per-register arrays, linear in the plan: one scan
   sizes the register space, one builds the register edges, a worklist
   sweeps them, and a last scan rebuilds only the item lists that change.

   The arrays are scratch, one set per domain, grown on demand and reused
   from plan to plan: allocating them afresh, several per plan and each
   the size of the program's variable space, cost more than the sweeps. *)

open Ir.Types

let iter_op f = function Var v -> f v | Cst _ | Undef -> ()

let rec iter_arms f = function
  | [] -> ()
  | (_, o) :: rest ->
    iter_op f o;
    iter_arms f rest

(* [f] on every shadow register [rhs] reads. [Rmem y] reads the pointer's
   value, not its shadow; keeping y live conservatively costs nothing. *)
let iter_rhs_reads f (rhs : Item.shadow_rhs) =
  match rhs with
  | Item.Rconst _ | Item.Rglobal _ -> ()
  | Item.Rvar y | Item.Rmem y -> f y
  | Item.Rconj ys -> List.iter f ys
  | Item.Rphi arms -> iter_arms f arms

(* Every action of the plan: labels in order, then the entry tables. *)
let iter_actions f (plan : Item.plan) =
  let rec items = function
    | [] -> ()
    | (it : Item.item) :: rest ->
      f it.act;
      items rest
  in
  Array.iter items plan.items;
  Hashtbl.iter (fun _ acts -> List.iter f acts) plan.entry_items

(* Held weakly, so a program's scratch goes with the next major
   collection once no pass is using it: holding it strongly kept about a
   megabyte live for the rest of the process. *)
let scratch = Ir.Scratch.make (fun () -> Array.make 8 [||])

(* Scratch slot [k], at least [n] long, its first [n] set to [v]. *)
let ints k n v =
  let s = Ir.Scratch.get scratch in
  if Array.length s.(k) < n then s.(k) <- Array.make (max n (2 * Array.length s.(k))) 0;
  Array.fill s.(k) 0 n v;
  s.(k)

(* The register space, one more than the highest [Set_var] target (only
   a register the plan writes can fold or die), and the number of reads
   of all [Set_var]s, which bounds the edges between registers. *)
let size plan =
  let n = ref 0 and m = ref 0 in
  let read _ = incr m in
  iter_actions
    (function
      | Item.Set_var (x, rhs) ->
        if x >= !n then n := x + 1;
        iter_rhs_reads read rhs
      | _ -> ())
    plan;
  (!n, !m)

(* Tagged edges between registers as lists in scratch slots 0-3:
   [head.(u)] is the first edge out of [u] (-1: none); edge [e] goes to
   [dst.(e)], carries [tag.(e)] and is followed by [next.(e)]. *)
type edges = {
  head : int array;
  next : int array;
  dst : int array;
  tag : int array;
  mutable m : int;
}

let edges (n, m) =
  { head = ints 0 n (-1); next = ints 1 m 0; dst = ints 2 m 0; tag = ints 3 m 0; m = 0 }

let add_edge g u v t =
  g.next.(g.m) <- g.head.(u);
  g.dst.(g.m) <- v;
  g.tag.(g.m) <- t;
  g.head.(u) <- g.m;
  g.m <- g.m + 1

let iter_edges g f u =
  let e = ref g.head.(u) in
  while !e >= 0 do
    f g.dst.(!e) g.tag.(!e);
    e := g.next.(!e)
  done

(* Marks over [n] registers in scratch slots 4-5: [mark] marks a register
   once, and [drain visit] visits every marked one once, including those
   [visit] marks. *)
let worklist n =
  let marked = ints 4 n 0 and stack = ints 5 n 0 and top = ref 0 in
  let mark x =
    if marked.(x) = 0 then begin
      marked.(x) <- 1;
      stack.(!top) <- x;
      incr top
    end
  in
  let rec drain visit =
    if !top > 0 then begin
      decr top;
      visit stack.(!top);
      drain visit
    end
  in
  (marked, mark, drain)

(* Rewrite the plan's actions with [f] (None deletes), rebuilding only
   the lists in which [touched] holds of some action. *)
let rewrite (plan : Item.plan) ~touched f =
  let touched_item (it : Item.item) = touched it.act in
  let item (it : Item.item) =
    match f it.act with
    | Some act when act == it.act -> Some it
    | Some act -> Some { it with Item.act }
    | None -> None
  in
  Array.iteri
    (fun i items ->
      if List.exists touched_item items then
        plan.items.(i) <- List.filter_map item items)
    plan.items;
  Hashtbl.iter
    (fun fn acts ->
      if List.exists touched acts then
        Hashtbl.replace plan.entry_items fn (List.filter_map f acts))
    plan.entry_items

(* Optimistic constant propagation over the shadow program — what LLVM's
   instcombine/SCCP does to MSan's inserted code at O1/O2: shadows rooted
   only in constants fold to "defined", their propagation chains collapse,
   and checks that provably never fire disappear. Shadow registers default
   to true at run time, so deleting an always-true [Set_var] is
   semantics-preserving. Returns the number of actions removed.

   Every right-hand side is a conjunction of the registers it reads, so a
   register is not constant-true exactly when its definition is false
   outright (F, a load, a relay, a phi with an undef arm) or reads one
   that is not: one sweep from the outright-false definitions along the
   reader edges. A register's definition is its last [Set_var] in plan
   order (the program is in SSA, so normally its only one), and an edge
   is tagged with the ordinal of the [Set_var] that reads; a register
   with none keeps its default, true. *)
let fold_constants (plan : Item.plan) : int =
  let ((n, _) as size) = size plan in
  let readers = edges size in
  let last = ints 6 n (-1) and outright = ints 7 n 0 in
  let k = ref 0 and x = ref 0 in
  let read y = if y < n then add_edge readers y !x !k in
  iter_actions
    (function
      | Item.Set_var (v, rhs) ->
        x := v;
        last.(v) <- !k;
        outright.(v) <-
          (match rhs with
          | Item.Rconst b -> Bool.to_int (not b)
          | Item.Rmem _ | Item.Rglobal _ -> 1
          | Item.Rphi arms ->
            Bool.to_int (List.exists (function _, Undef -> true | _ -> false) arms)
          | Item.Rvar _ | Item.Rconj _ -> 0);
        iter_rhs_reads read rhs;
        incr k
      | _ -> ())
    plan;
  let not_const, demote, drain = worklist n in
  for v = 0 to n - 1 do
    if outright.(v) = 1 then demote v
  done;
  let via reader k = if last.(reader) = k then demote reader in
  drain (iter_edges readers via);
  let is_true v = v >= n || not_const.(v) = 0 in
  let removed = ref 0 in
  (* Drop always-true definitions and the checks they feed; thin
     conjunctions of surviving definitions. *)
  let fold (a : Item.action) : Item.action option =
    match a with
    | Item.Set_var (x, _) when is_true x ->
      incr removed;
      None
    | Item.Set_var (x, Item.Rconj ys) when List.exists is_true ys -> (
      match List.filter (fun y -> not (is_true y)) ys with
      | [] ->
        incr removed;
        None
      | ys' -> Some (Item.Set_var (x, Item.Rconj ys')))
    | Item.Check (Var x) when is_true x ->
      incr removed;
      None
    | Item.Set_mem (x, Item.Mop (Var y)) when is_true y ->
      Some (Item.Set_mem (x, Item.Mop (Cst 1)))
    | Item.Set_global (i, Var y) when is_true y -> Some (Item.Set_global (i, Cst 1))
    | other -> Some other
  in
  let touched (a : Item.action) =
    match a with
    | Item.Set_var (x, Item.Rconj ys) -> is_true x || List.exists is_true ys
    | Item.Set_var (x, _) | Item.Check (Var x)
    | Item.Set_mem (_, Item.Mop (Var x)) | Item.Set_global (_, Var x) ->
      is_true x
    | _ -> false
  in
  rewrite plan ~touched fold;
  !removed

(* Shadow dead-code elimination, as a reference-counted sweep: count each
   register's readers (by any action, with multiplicity), kill every
   [Set_var] target nobody reads, and let each kill release the registers
   its definitions read. Self-reading phis and dead cycles survive.
   Shadow-memory writes are kept, since shadow memory is indexed
   dynamically. Returns the number of [Set_var]s removed. *)
let run (plan : Item.plan) : int =
  let ((n, _) as size) = size plan in
  let reads = edges size in
  let nreaders = ints 6 n 0 and defined = ints 7 n 0 in
  let count v = if v < n then nreaders.(v) <- nreaders.(v) + 1 in
  let x = ref 0 in
  let read y =
    if y < n then begin
      count y;
      add_edge reads !x y 0
    end
  in
  iter_actions
    (function
      | Item.Set_var (v, rhs) ->
        x := v;
        defined.(v) <- 1;
        iter_rhs_reads read rhs
      | Item.Set_mem (_, Item.Mop o) | Item.Set_global (_, o) | Item.Check o ->
        iter_op count o
      | Item.Set_mem (_, Item.Mconst _) | Item.Set_mem_object _ -> ())
    plan;
  let dead, kill, drain = worklist n in
  for v = 0 to n - 1 do
    if defined.(v) = 1 && nreaders.(v) = 0 then kill v
  done;
  let release v _ =
    nreaders.(v) <- nreaders.(v) - 1;
    if nreaders.(v) = 0 && defined.(v) = 1 then kill v
  in
  drain (iter_edges reads release);
  let removed = ref 0 in
  let is_dead (a : Item.action) =
    match a with Item.Set_var (x, _) -> dead.(x) = 1 | _ -> false
  in
  rewrite plan ~touched:is_dead (fun a ->
      if is_dead a then begin
        incr removed;
        None
      end
      else Some a);
  !removed
