(* Dominator trees and dominance frontiers, following Cooper, Harvey &
   Kennedy, "A Simple, Fast Dominance Algorithm". Used by mem2reg (phi
   placement), semi-strong updates and Opt II (dominance queries). *)

open Ir.Types

type t = {
  func : func;
  rpo : blockid array;            (* reverse postorder *)
  rpo_index : int array;          (* block -> position in rpo; -1 unreachable *)
  idom : int array;               (* immediate dominator; -1 for entry/unreachable *)
  preds : blockid list array;     (* CFG predecessors *)
  children : blockid list array;  (* dominator-tree children *)
  mutable frontier : blockid list array option;
      (* dominance frontiers, built by the first [frontier] call: only
         phi placement reads them *)
  dfs_pre : int array;            (* dominator-tree DFS intervals for O(1) queries *)
  dfs_post : int array;
}

let compute (f : func) : t =
  let n = Array.length f.blocks in
  let rpo = Array.of_list (Ir.Func.reverse_postorder f) in
  let rpo_index = Array.make n (-1) in
  Array.iteri (fun i b -> rpo_index.(b) <- i) rpo;
  let preds = Ir.Func.preds f in
  let idom = Array.make n (-1) in
  if n > 0 then begin
    idom.(0) <- 0;
    let intersect b1 b2 =
      let f1 = ref b1 and f2 = ref b2 in
      while !f1 <> !f2 do
        while rpo_index.(!f1) > rpo_index.(!f2) do f1 := idom.(!f1) done;
        while rpo_index.(!f2) > rpo_index.(!f1) do f2 := idom.(!f2) done
      done;
      !f1
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun b ->
          if b <> 0 then begin
            let new_idom = ref (-1) in
            List.iter
              (fun p ->
                if rpo_index.(p) >= 0 && idom.(p) >= 0 then
                  new_idom := if !new_idom = -1 then p else intersect p !new_idom)
              preds.(b);
            if !new_idom >= 0 && idom.(b) <> !new_idom then begin
              idom.(b) <- !new_idom;
              changed := true
            end
          end)
        rpo
    done
  end;
  (* Entry's idom is conventionally itself during iteration; normalize. *)
  let children = Array.make n [] in
  for b = n - 1 downto 0 do
    if b <> 0 && idom.(b) >= 0 then children.(idom.(b)) <- b :: children.(idom.(b))
  done;
  if n > 0 then idom.(0) <- -1;
  (* DFS numbering of the dominator tree for constant-time dominance tests. *)
  let dfs_pre = Array.make n (-1) and dfs_post = Array.make n (-1) in
  let clock = ref 0 in
  let rec dfs b =
    dfs_pre.(b) <- !clock;
    incr clock;
    List.iter dfs children.(b);
    dfs_post.(b) <- !clock;
    incr clock
  in
  if n > 0 then dfs 0;
  { func = f; rpo; rpo_index; idom; preds; children; frontier = None; dfs_pre; dfs_post }

(* Dominance frontiers (CHK): for each join point [b], walk up from each
   reachable pred until the idom of [b], adding [b] to each block passed.
   [b] only enters frontiers while it is the join being walked, so
   [last.(r) = b] says it is already in [r]'s. *)
let frontiers t =
  let n = Array.length t.idom in
  let idom = t.idom and rpo_index = t.rpo_index and preds = t.preds in
  let frontier = Array.make n [] in
  let last = Array.make n (-1) in
  for b = 0 to n - 1 do
    match preds.(b) with
    | _ :: _ :: _ when rpo_index.(b) >= 0 ->
      List.iter
        (fun p ->
          if rpo_index.(p) >= 0 then begin
            let runner = ref p in
            while !runner <> (if b = 0 then -1 else idom.(b)) && !runner <> -1 do
              if last.(!runner) <> b then begin
                last.(!runner) <- b;
                frontier.(!runner) <- b :: frontier.(!runner)
              end;
              runner := if !runner = 0 then -1 else idom.(!runner)
            done
          end)
        preds.(b)
    | _ -> ()
  done;
  frontier

let idom t b = if t.idom.(b) < 0 then None else Some t.idom.(b)
let children t b = t.children.(b)
let preds t = t.preds

let frontier t b =
  match t.frontier with
  | Some fr -> fr.(b)
  | None ->
    let fr = frontiers t in
    t.frontier <- Some fr;
    fr.(b)
let reachable t b = t.rpo_index.(b) >= 0

(** [dominates t a b] — does block [a] dominate block [b] (reflexively)? *)
let dominates t a b =
  reachable t a && reachable t b
  && t.dfs_pre.(a) <= t.dfs_pre.(b)
  && t.dfs_post.(b) <= t.dfs_post.(a)

let strictly_dominates t a b = a <> b && dominates t a b

(** Instruction-level dominance: label positions within the function. *)
type label_positions = (label, int * int) Hashtbl.t
(* label -> (blockid, index); terminator index = max_int *)

let label_positions (f : func) : label_positions =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun b ->
      List.iteri (fun i ins -> Hashtbl.replace tbl ins.lbl (b.bid, i)) b.instrs;
      Hashtbl.replace tbl b.term.tlbl (b.bid, max_int))
    f.blocks;
  tbl

(** [label_dominates t pos la lb] — does the statement labelled [la] dominate
    the statement labelled [lb] in [t.func]'s CFG? Both labels must belong to
    the function. *)
let label_dominates t (pos : label_positions) la lb =
  match (Hashtbl.find_opt pos la, Hashtbl.find_opt pos lb) with
  | Some (ba, ia), Some (bb, ib) ->
    if ba = bb then ia <= ib else strictly_dominates t ba bb
  | _ -> false
