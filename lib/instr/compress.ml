(* Shadow dead-code elimination: re-optimizing the inserted instrumentation,
   step (3) of the paper's O1/O2 methodology (§4.6) — "rerunning the
   optimization suite ... to further optimize the instrumentation code
   inserted".

   A [Set_var] whose shadow register is never read (by another shadow
   statement, a relay, a shadow memory write or a check) is dead and
   removed, to a fixpoint. Shadow-memory writes are kept whenever any load
   shadow ([Rmem]) exists, since shadow memory is indexed dynamically. *)

open Ir.Types

let shadow_reads (a : Item.action) : var list =
  let op = function Var v -> [ v ] | Cst _ | Undef -> [] in
  match a with
  | Item.Set_var (_, rhs) -> (
    match rhs with
    | Item.Rconst _ | Item.Rglobal _ -> []
    | Item.Rvar y -> [ y ]
    | Item.Rconj ys -> ys
    | Item.Rmem y -> [ y ]   (* the pointer's *value* is read, not its shadow;
                                but conservatively keeping y costs nothing *)
    | Item.Rphi arms -> List.concat_map (fun (_, o) -> op o) arms)
  | Item.Set_mem (_, Item.Mop o) -> op o
  | Item.Set_mem (_, Item.Mconst _) | Item.Set_mem_object _ -> []
  | Item.Set_global (_, o) -> op o
  | Item.Check o -> op o

(* Optimistic constant propagation over the shadow program — what LLVM's
   instcombine/SCCP does to MSan's inserted code at O1/O2: shadows rooted
   only in constants fold to "defined", their propagation chains collapse,
   and checks that provably never fire disappear. Shadow registers default
   to true at run time, so deleting an always-true [Set_var] is
   semantics-preserving. Returns the number of actions removed. *)
let fold_constants (plan : Item.plan) : int =
  let removed = ref 0 in
  (* Shadow definition per variable (unique: the program is in SSA). *)
  let defs : (var, Item.shadow_rhs) Hashtbl.t = Hashtbl.create 256 in
  let scan_def (a : Item.action) =
    match a with
    | Item.Set_var (x, rhs) -> Hashtbl.replace defs x rhs
    | _ -> ()
  in
  Array.iter (fun items -> List.iter (fun (it : Item.item) -> scan_def it.act) items)
    plan.items;
  Hashtbl.iter (fun _ acts -> List.iter scan_def acts) plan.entry_items;
  (* Optimistic fixpoint: assume every shadow is constant-true, demote to
     non-constant until stable. A variable with no shadow definition keeps
     its default (true). *)
  let not_const : (var, unit) Hashtbl.t = Hashtbl.create 256 in
  let is_true v = not (Hashtbl.mem not_const v) in
  let op_true = function
    | Var v -> is_true v
    | Cst _ -> true
    | Undef -> false
  in
  let rhs_true (rhs : Item.shadow_rhs) =
    match rhs with
    | Item.Rconst b -> b
    | Item.Rvar y -> is_true y
    | Item.Rconj ys -> List.for_all is_true ys
    | Item.Rmem _ | Item.Rglobal _ -> false
    | Item.Rphi arms -> List.for_all (fun (_, o) -> op_true o) arms
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun x rhs ->
        if is_true x && not (rhs_true rhs) then begin
          Hashtbl.replace not_const x ();
          changed := true
        end)
      defs
  done;
  (* Rewrite: drop always-true definitions and the checks they feed; thin
     conjunctions of surviving definitions. *)
  let rewrite (a : Item.action) : Item.action option =
    match a with
    | Item.Set_var (x, _) when is_true x ->
      incr removed;
      None
    | Item.Set_var (x, Item.Rconj ys) ->
      let ys' = List.filter (fun y -> not (is_true y)) ys in
      if ys' = [] then (incr removed; None)
      else Some (Item.Set_var (x, Item.Rconj ys'))
    | Item.Check (Var x) when is_true x ->
      incr removed;
      None
    | Item.Set_mem (x, Item.Mop (Var y)) when is_true y ->
      Some (Item.Set_mem (x, Item.Mop (Cst 1)))
    | Item.Set_global (i, Var y) when is_true y -> Some (Item.Set_global (i, Cst 1))
    | other -> Some other
  in
  Array.iteri
    (fun i items ->
      plan.items.(i) <-
        List.filter_map
          (fun (it : Item.item) ->
            Option.map (fun act -> { it with Item.act }) (rewrite it.act))
          items)
    plan.items;
  Hashtbl.iter
    (fun fn acts ->
      Hashtbl.replace plan.entry_items fn (List.filter_map rewrite acts))
    plan.entry_items;
  !removed

(* Reference-counted sweep: count each register's readers once (with
   multiplicity), kill every [Set_var] target nobody reads, and let each
   kill release the registers its definitions read. Linear in the plan,
   with the fixpoint of rescanning until stable: self-reading phis and
   dead cycles survive. *)
let run (plan : Item.plan) : int =
  let readers : (var, int) Hashtbl.t = Hashtbl.create 256 in
  let sets : (var, Item.action) Hashtbl.t = Hashtbl.create 256 in
  let count d v =
    let n = d + Option.value ~default:0 (Hashtbl.find_opt readers v) in
    Hashtbl.replace readers v n;
    n
  in
  let scan (a : Item.action) =
    List.iter (fun v -> ignore (count 1 v)) (shadow_reads a);
    match a with Item.Set_var (x, _) -> Hashtbl.add sets x a | _ -> ()
  in
  Array.iter (List.iter (fun (it : Item.item) -> scan it.act)) plan.items;
  Hashtbl.iter (fun _ acts -> List.iter scan acts) plan.entry_items;
  let dead : (var, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec kill x =
    if not (Hashtbl.mem dead x) then begin
      Hashtbl.replace dead x ();
      List.iter
        (fun a -> List.iter release (shadow_reads a))
        (Hashtbl.find_all sets x)
    end
  and release v = if count (-1) v = 0 && Hashtbl.mem sets v then kill v in
  Hashtbl.iter (fun x _ -> if not (Hashtbl.mem readers x) then kill x) sets;
  let removed = ref 0 in
  let live (a : Item.action) =
    match a with
    | Item.Set_var (x, _) when Hashtbl.mem dead x ->
      incr removed;
      false
    | _ -> true
  in
  Array.iteri
    (fun i items ->
      plan.items.(i) <- List.filter (fun (it : Item.item) -> live it.act) items)
    plan.items;
  Hashtbl.filter_map_inplace
    (fun _ acts -> Some (List.filter live acts))
    plan.entry_items;
  !removed
