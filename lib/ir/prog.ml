(* Program-level operations: variable/label allocation and lookups. *)

open Types

type t = Types.t

let dummy_varinfo = { vname = "!dummy"; vowner = ""; vbase = -1; vver = 0 }

let create () =
  {
    funcs = [];
    globals = [];
    vars = Vec.create ~dummy:dummy_varinfo;
    next_label = 0;
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

(** [fresh_version p v ~ver] creates a new SSA version of [v]'s base. *)
let fresh_version p v ~ver =
  let vi = Vec.get p.vars v in
  let id = Vec.push p.vars dummy_varinfo in
  Vec.set p.vars id { vi with vbase = vi.vbase; vver = ver };
  id

let varinfo p v = Vec.get p.vars v

let var_name p v =
  let vi = Vec.get p.vars v in
  if vi.vver = 0 then vi.vname else Printf.sprintf "%s.%d" vi.vname vi.vver

let nvars p = Vec.length p.vars

let add_func p f =
  p.funcs <- p.funcs @ [ (f.fname, f) ];
  Hashtbl.replace p.func_tbl f.fname f

(** Replace a function in place after a transforming pass. *)
let update_func p f =
  p.funcs <- List.map (fun (n, g) -> if n = f.fname then (n, f) else (n, g)) p.funcs;
  Hashtbl.replace p.func_tbl f.fname f

(** Replace every function [fn] by [g fn], in declaration order and in one
    pass over the list. [g] must keep the function's name. *)
let map_funcs g p =
  p.funcs <-
    List.map
      (fun ((n, fn) as entry) ->
        let fn' = g fn in
        if fn' == fn then entry
        else begin
          Hashtbl.replace p.func_tbl n fn';
          (n, fn')
        end)
      p.funcs

let find_func p name = Hashtbl.find_opt p.func_tbl name

let get_func p name =
  match find_func p name with
  | Some f -> f
  | None -> Diag.error Diag.Ir "Prog.get_func: unknown function %s" name

let iter_funcs f p = List.iter (fun (_, fn) -> f fn) p.funcs

let fold_funcs f acc p = List.fold_left (fun acc (_, fn) -> f acc fn) acc p.funcs

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
