(* Program-level operations: variable/label allocation and lookups. *)

open Types

type t = Types.t

let dummy_varinfo = { vname = "!dummy"; vowner = ""; vbase = -1; vver = 0 }
let dummy_func = { fname = "!dummy"; params = []; blocks = [||] }

let create () =
  {
    funcs = Vec.create ~dummy:dummy_func;
    globals = [];
    vars = Vec.create ~dummy:dummy_varinfo;
    next_label = 0;
    next_temp = 0;
    func_tbl = Hashtbl.create 17;
  }

let fresh_label p =
  let l = p.next_label in
  p.next_label <- l + 1;
  l

let fresh_var p ~name ~owner =
  let id = Vec.push p.vars dummy_varinfo in
  Vec.set p.vars id { vname = name; vowner = owner; vbase = id; vver = 0 };
  id

let varinfo p v = Vec.get p.vars v

let var_name p v =
  let vi = Vec.get p.vars v in
  if vi.vver = 0 then vi.vname else Printf.sprintf "%s.%d" vi.vname vi.vver

let nvars p = Vec.length p.vars

let add_func p f = Hashtbl.replace p.func_tbl f.fname (Vec.push p.funcs f)

let nfuncs p = Vec.length p.funcs
let func_at p fi = Vec.get p.funcs fi

let func_number p name =
  match Hashtbl.find_opt p.func_tbl name with Some fi -> fi | None -> -1

(** Replace a function in place after a transforming pass. *)
let update_func p f =
  match Hashtbl.find_opt p.func_tbl f.fname with
  | Some fi -> Vec.set p.funcs fi f
  | None -> Diag.error Diag.Ir "Prog.update_func: unknown function %s" f.fname

(** Replace every function [fn] by [g fn], in declaration order. [g] must
    keep the function's name. *)
let map_funcs g p = Vec.iteri (fun fi fn -> Vec.set p.funcs fi (g fn)) p.funcs

let find_func p name =
  match Hashtbl.find_opt p.func_tbl name with
  | Some fi -> Some (Vec.get p.funcs fi)
  | None -> None

let get_func p name =
  match find_func p name with
  | Some f -> f
  | None -> Diag.error Diag.Ir "Prog.get_func: unknown function %s" name

let iter_funcs f p = Vec.iteri (fun _ fn -> f fn) p.funcs

let fold_funcs f acc p = Vec.fold_left f acc p.funcs

let add_global p g = p.globals <- p.globals @ [ g ]

(** Total number of instruction/terminator labels allocated so far; plans and
    side tables are arrays indexed by label. *)
let nlabels p = p.next_label

(* A closure per function, none per block or instruction. *)
let iter_instrs f p =
  let rec instrs fn b = function
    | [] -> ()
    | i :: rest ->
      f fn b i;
      instrs fn b rest
  in
  iter_funcs (fun fn -> Array.iter (fun b -> instrs fn b b.instrs) fn.blocks) p

let iter_terms f p =
  iter_funcs (fun fn -> Array.iter (fun b -> f fn b b.term) fn.blocks) p

(** Number of IR statements (instructions + terminators), the paper's proxy
    for program size. *)
let size p =
  let n = ref 0 in
  iter_instrs (fun _ _ _ -> incr n) p;
  iter_terms (fun _ _ _ -> incr n) p;
  !n
