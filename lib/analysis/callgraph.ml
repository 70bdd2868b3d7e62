(* The resolved call graph (direct calls plus indirect calls resolved by the
   pointer analysis), its Tarjan SCC condensation, and recursion queries. *)

open Ir.Types
module P = Ir.Prog

type t = {
  prog : P.t;
  callees : (fname, fname list) Hashtbl.t;     (* deduplicated *)
  site_callees : (label, fname list) Hashtbl.t;
  scc_of : (fname, int) Hashtbl.t;             (* SCC id per function *)
  sccs : fname list array;                     (* reverse topological order *)
  recursive : (fname, unit) Hashtbl.t;
}

let build (p : P.t) (pa : Andersen.t) : t =
  let callees = Hashtbl.create 16 in
  let site_callees = Hashtbl.create 64 in
  let add tbl k v =
    let prev = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
    if not (List.mem v prev) then Hashtbl.replace tbl k (v :: prev)
  in
  P.iter_funcs (fun f ->
      if not (Hashtbl.mem callees f.fname) then Hashtbl.replace callees f.fname [])
    p;
  P.iter_instrs
    (fun f _ i ->
      match i.kind with
      | Call _ ->
        let targets = Andersen.call_targets pa i in
        Hashtbl.replace site_callees i.lbl targets;
        List.iter (add callees f.fname) targets
      | _ -> ())
    p;
  (* Tarjan's strongly connected components. *)
  let index = Hashtbl.create 16 and low = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let scc_of = Hashtbl.create 16 in
  let scc_list = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (Option.value ~default:[] (Hashtbl.find_opt callees v));
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      let comp = pop [] in
      scc_list := comp :: !scc_list
    end
  in
  P.iter_funcs (fun f -> if not (Hashtbl.mem index f.fname) then strongconnect f.fname) p;
  (* Tarjan emits SCCs in reverse topological order of the condensation
     (callees before callers), which is exactly the order bottom-up
     summaries want. *)
  let sccs = Array.of_list (List.rev !scc_list) in
  Array.iteri (fun i comp -> List.iter (fun f -> Hashtbl.replace scc_of f i) comp) sccs;
  let recursive = Hashtbl.create 8 in
  Array.iter
    (fun comp ->
      match comp with
      | [ f ] ->
        if List.mem f (Option.value ~default:[] (Hashtbl.find_opt callees f)) then
          Hashtbl.replace recursive f ()
      | _ :: _ :: _ -> List.iter (fun f -> Hashtbl.replace recursive f ()) comp
      | [] -> ())
    sccs;
  { prog = p; callees; site_callees; scc_of; sccs; recursive }

let callees_of t f = Option.value ~default:[] (Hashtbl.find_opt t.callees f)
let site_callees t lbl = Option.value ~default:[] (Hashtbl.find_opt t.site_callees lbl)

(** Is [f] part of a call-graph cycle (including self-recursion)? Recursive
    functions' stack objects are never strongly updated. *)
let is_recursive t f = Hashtbl.mem t.recursive f

(** SCCs with callees before callers: process in increasing index for
    bottom-up summary computation. *)
let bottom_up_sccs t = t.sccs
