(* Must Flow-from Closures (Definition 2): the DAG of top-level variables
   feeding [x] through copies, unary/binary operations and constants. [x] is
   the sole sink; the sources are loads, call results, parameters, phis and
   the T root (for constants and allocation results). The closure's key
   property: sigma(x) is exactly the conjunction of the sources' shadows.

   One walk over the program index serves Opt I (value-flow
   simplification) and Opt II (redundant check elimination). A var is a
   member of the current walk when its mark holds the walk's stamp, so no
   per-closure table is allocated (a source's mark is the stamp negated);
   the members go to a buffer that grows by doubling. *)

open Ir.Types

type t = {
  ix : Index.t;
  mark : int array;             (* var -> stamp of the last walk reaching
                                   it, negated for a source *)
  mutable stamp : int;
  mutable func : int;           (* the last walk's function *)
  mutable members : int array;  (* preorder *)
  mutable nmembers : int;
  mutable defined : bool;       (* the T root is a source *)
  mutable undef : bool;         (* the F root is a source *)
  mutable interior : int;
}

let create ix =
  {
    ix;
    mark = Array.make (Index.nvars ix) 0;
    stamp = 0;
    func = -1;
    members = Array.make 16 0;
    nmembers = 0;
    defined = false;
    undef = false;
    interior = 0;
  }

(* The defining instruction of [v] in the walk's function, if any. *)
let def t v =
  let l = Index.def_label t.ix v in
  if l < 0 || Index.label_func t.ix l <> t.func then Output Undef else Index.kind t.ix l

let rec go t v =
  if abs t.mark.(v) <> t.stamp then begin
    t.mark.(v) <- t.stamp;
    if t.nmembers = Array.length t.members then t.members <- Array.append t.members t.members;
    t.members.(t.nmembers) <- v;
    t.nmembers <- t.nmembers + 1;
    match def t v with
    | Copy (_, o) | Unop (_, _, o) ->
      t.interior <- t.interior + 1;
      operand t o
    | Binop (_, _, o1, o2) ->
      t.interior <- t.interior + 1;
      operand t o1;
      operand t o2
    | Field_addr (_, y, _) ->
      (* Address computations are must-flow conjunctions, exactly like
         binary operations: sigma(&y->f) = sigma(y). *)
      t.interior <- t.interior + 1;
      go t y
    | Index_addr (_, y, o) ->
      t.interior <- t.interior + 1;
      go t y;
      operand t o
    | Const _ | Alloc _ | Global_addr _ | Func_addr _ | Input _ ->
      (* Always-defined producers. *)
      t.interior <- t.interior + 1;
      t.defined <- true
    | Load _ | Call _ | Phi _ | Store _ | Output _ ->
      (* Parameters and anything that is not a pure top-level move: a
         source of the closure. *)
      t.mark.(v) <- -t.stamp
  end

and operand t = function
  | Var y -> go t y
  | Cst _ -> t.defined <- true
  | Undef -> t.undef <- true

let walk t ~func x =
  t.stamp <- t.stamp + 1;
  t.func <- func;
  t.nmembers <- 0;
  t.defined <- false;
  t.undef <- false;
  t.interior <- 0;
  go t x

let nmembers t = t.nmembers
let member t k = t.members.(k)
let interior t = t.interior

let var_sources t =
  let rec from k acc =
    if k = t.nmembers then acc
    else
      let v = t.members.(k) in
      from (k + 1) (if t.mark.(v) < 0 then v :: acc else acc)
  in
  from 0 []

let has_defined_source t = t.defined
let has_undef_source t = t.undef
let simplifiable t = t.interior >= 2
