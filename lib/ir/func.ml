(* Function-level structural queries: successors, predecessors, traversals. *)

open Types

let nblocks (f : func) = Array.length f.blocks

let block (f : func) (b : blockid) = f.blocks.(b)

let succs (f : func) (b : blockid) = Instr.term_succs f.blocks.(b).term.tkind

(* [g] on each successor of [b], in [succs] order, without the list. *)
let iter_succs g (f : func) (b : blockid) =
  match f.blocks.(b).term.tkind with
  | Br (_, b1, b2) -> g b1; g b2
  | Jmp b1 -> g b1
  | Ret _ -> ()

(* Blocks are visited from the last, so each list comes out ascending. *)
let preds (f : func) : blockid list array =
  let n = nblocks f in
  let preds = Array.make n [] in
  for b = n - 1 downto 0 do
    iter_succs (fun s -> preds.(s) <- b :: preds.(s)) f b
  done;
  preds

(** Blocks in reverse postorder from the entry; unreachable blocks excluded. *)
let reverse_postorder (f : func) : blockid list =
  let n = nblocks f in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      iter_succs dfs f b;
      order := b :: !order
    end
  in
  if n > 0 then dfs 0;
  !order

let reachable (f : func) : bool array =
  let n = nblocks f in
  let visited = Array.make n false in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      iter_succs dfs f b
    end
  in
  if n > 0 then dfs 0;
  visited

let rec iter_block g b = function [] -> () | i :: rest -> g b i; iter_block g b rest

(* No closure per block. *)
let iter_instrs g (f : func) =
  for k = 0 to Array.length f.blocks - 1 do
    let b = f.blocks.(k) in
    iter_block g b b.instrs
  done

let rec filter_shared keep = function
  | [] -> []
  | x :: rest as l ->
    let kept = keep x in
    let rest' = filter_shared keep rest in
    if not kept then rest' else if rest' == rest then l else x :: rest'

(** All variables defined in the function (params included). *)
let defined_vars (f : func) : var list =
  let defs = ref (List.rev f.params) in
  iter_instrs
    (fun _ i ->
      match Instr.def_of i.kind with Some v -> defs := v :: !defs | None -> ())
    f;
  List.rev !defs

(** Find the instruction carrying [lbl], if any. *)
let find_instr (f : func) (lbl : label) : (block * instr) option =
  let found = ref None in
  Array.iter
    (fun b ->
      List.iter (fun i -> if i.lbl = lbl then found := Some (b, i)) b.instrs)
    f.blocks;
  !found
