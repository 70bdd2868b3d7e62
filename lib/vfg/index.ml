(* The IR facts the value-flow layer reads, in arrays by var and by label.
   A var's defining label, or its parameter position [k] as [-k - 2], is
   one int. A label's function, block and position are packed into one
   int, [func lsl 42 lor block lsl 21 lor pos], so that within one block
   the packed order is the statement order; a terminator's position is the
   field's largest value. Dominance is kept as the dominator tree's DFS
   intervals, one int per block. *)

open Ir.Types

type t = {
  funcs : func array;
  numbers : (fname, int) Hashtbl.t;
  def : int array;            (* var -> defining label, parameter
                                 position, or -1 *)
  where : int array;          (* label -> packed place, or -1 *)
  kinds : instr_kind array;   (* label -> instruction kind *)
  doms : int array array;     (* function -> block -> [pre lsl 31 lor
                                 post], -1 unreachable; [||] until asked *)
}

let field = 21
let mask = (1 lsl field) - 1
let term = mask

let build (p : Ir.Prog.t) : t =
  let funcs = Array.of_list (List.rev (Ir.Prog.fold_funcs (fun acc f -> f :: acc) [] p)) in
  let nfuncs = Array.length funcs in
  if nfuncs >= 1 lsl (62 - (2 * field)) then invalid_arg "Vfg.Index.build: too many functions";
  let numbers = Hashtbl.create nfuncs in
  let nvars = Ir.Prog.nvars p and nlabels = Ir.Prog.nlabels p in
  let def = Array.make nvars (-1) in
  let where = Array.make nlabels (-1) and kinds = Array.make nlabels (Output Undef) in
  let rec instrs base k = function
    | [] -> ()
    | (i : instr) :: rest ->
      if k >= term then invalid_arg "Vfg.Index.build: block too long";
      where.(i.lbl) <- base lor k;
      kinds.(i.lbl) <- i.kind;
      let d = Ir.Instr.def_var i.kind in
      if d >= 0 then def.(d) <- i.lbl;
      instrs base (k + 1) rest
  in
  Array.iteri
    (fun fi (f : func) ->
      Hashtbl.replace numbers f.fname fi;
      List.iteri (fun k prm -> def.(prm) <- -k - 2) f.params;
      Array.iter
        (fun (b : block) ->
          if b.bid > mask then invalid_arg "Vfg.Index.build: too many blocks";
          let base = (fi lsl (2 * field)) lor (b.bid lsl field) in
          instrs base 0 b.instrs;
          where.(b.term.tlbl) <- base lor term)
        f.blocks)
    funcs;
  { funcs; numbers; def; where; kinds; doms = Array.make nfuncs [||] }

let nfuncs t = Array.length t.funcs
let nvars t = Array.length t.def
let func t fi = t.funcs.(fi)
let func_number t fn = match Hashtbl.find t.numbers fn with fi -> fi | exception Not_found -> -1
let def_label t v = max t.def.(v) (-1)
let param_pos t v = if t.def.(v) < -1 then -t.def.(v) - 2 else -1

let label_func t l =
  let w = t.where.(l) in
  if w < 0 then -1 else w lsr (2 * field)

let label_block t l = (t.where.(l) lsr field) land mask

let label_pos t l =
  let k = t.where.(l) land mask in
  if k = term then max_int else k

let kind t l = t.kinds.(l)

(* The DFS intervals of [f]'s dominator tree: a block dominates another
   when its interval holds the other's. *)
let intervals (f : func) =
  let d = Analysis.Dominance.compute f in
  let iv = Array.make (Array.length f.blocks) (-1) and clock = ref 0 in
  let rec dfs b =
    let pre = !clock in
    incr clock;
    List.iter dfs (Analysis.Dominance.children d b);
    iv.(b) <- (pre lsl 31) lor !clock;
    incr clock
  in
  if Array.length iv > 0 then dfs 0;
  iv

let dominates t la lb =
  let wa = t.where.(la) and wb = t.where.(lb) in
  let ba = (wa lsr field) land mask and bb = (wb lsr field) land mask in
  if ba = bb then wa <= wb
  else
    let fi = wb lsr (2 * field) in
    if Array.length t.doms.(fi) = 0 then t.doms.(fi) <- intervals t.funcs.(fi);
    let ia = t.doms.(fi).(ba) and ib = t.doms.(fi).(bb) in
    ia >= 0 && ib >= 0
    && ia lsr 31 <= ib lsr 31
    && ib land 0x7FFFFFFF <= ia land 0x7FFFFFFF
