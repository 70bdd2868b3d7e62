(* The IR facts the analyses after pointer analysis read, in arrays by
   var and by label. A var's defining label, or its parameter position [k]
   as [-k - 2], is one int. A label's function, block and position are
   packed into one int, [func lsl 42 lor block lsl 21 lor pos], so that
   within one block the packed order is the statement order; a
   terminator's position is the field's largest value. Dominance is kept
   as the dominator tree's DFS intervals ([Dominance.dfs_pre] and
   [dfs_post]), one int per block. *)

open Ir.Types

type t = {
  prog : Ir.Prog.t;           (* numbers the functions *)
  def : int array;            (* var -> defining label, parameter
                                 position, or -1 *)
  where : int array;          (* label -> packed place, or -1 *)
  kinds : instr_kind array;   (* label -> instruction kind *)
  doms : int array array;     (* function -> block -> [pre lsl 31 lor
                                 post], -1 unreachable *)
}

let field = 21
let mask = (1 lsl field) - 1
let term = mask

let build (p : Ir.Prog.t) visit : t =
  let nfuncs = Ir.Prog.nfuncs p in
  if nfuncs >= 1 lsl (62 - (2 * field)) then invalid_arg "Analysis.Index.build: too many functions";
  let nvars = Ir.Prog.nvars p and nlabels = Ir.Prog.nlabels p in
  let def = Array.make nvars (-1) in
  let where = Array.make nlabels (-1) and kinds = Array.make nlabels (Output Undef) in
  let doms = Array.make nfuncs [||] in
  let rec instrs base k = function
    | [] -> ()
    | (i : instr) :: rest ->
      if k >= term then invalid_arg "Analysis.Index.build: block too long";
      where.(i.lbl) <- base lor k;
      kinds.(i.lbl) <- i.kind;
      let d = Ir.Instr.def_var i.kind in
      if d >= 0 then def.(d) <- i.lbl;
      instrs base (k + 1) rest
  in
  for fi = 0 to nfuncs - 1 do
    let f = Ir.Prog.func_at p fi in
    List.iteri (fun k prm -> def.(prm) <- -k - 2) f.params;
    Array.iter
      (fun (b : block) ->
        if b.bid > mask then invalid_arg "Analysis.Index.build: too many blocks";
        let base = (fi lsl (2 * field)) lor (b.bid lsl field) in
        instrs base 0 b.instrs;
        where.(b.term.tlbl) <- base lor term)
      f.blocks;
    let d = Dominance.compute f in
    doms.(fi) <-
      Array.init (Array.length f.blocks) (fun b ->
          let pre = Dominance.dfs_pre d b in
          if pre < 0 then -1 else (pre lsl 31) lor Dominance.dfs_post d b);
    visit f d
  done;
  { prog = p; def; where; kinds; doms }

let nfuncs t = Ir.Prog.nfuncs t.prog
let nvars t = Array.length t.def
let func t fi = Ir.Prog.func_at t.prog fi
let func_number t fn = Ir.Prog.func_number t.prog fn
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

(* A block dominates another when its interval holds the other's. *)
let dominates t la lb =
  let wa = t.where.(la) and wb = t.where.(lb) in
  let ba = (wa lsr field) land mask and bb = (wb lsr field) land mask in
  if ba = bb then wa <= wb
  else
    let iv = t.doms.(wb lsr (2 * field)) in
    let ia = iv.(ba) and ib = iv.(bb) in
    ia >= 0 && ib >= 0
    && ia lsr 31 <= ib lsr 31
    && ib land 0x7FFFFFFF <= ia land 0x7FFFFFFF
