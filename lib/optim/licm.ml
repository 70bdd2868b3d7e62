(* Loop-invariant code motion for pure instructions, part of the O2
   pipeline. Natural loops are found via back edges (tail dominated by
   head); invariant pure instructions are hoisted into a dedicated
   preheader block inserted on the entry edges of the loop header. *)

open Ir.Types
module P = Ir.Prog
module Instr = Ir.Instr

(* Natural loop of back edge (tail -> head): head plus all blocks reaching
   tail without passing through head. *)
let natural_loop (f : func) (preds : blockid list array) ~head ~tail :
    (blockid, unit) Hashtbl.t =
  let body = Hashtbl.create 8 in
  Hashtbl.replace body head ();
  let rec add b =
    if not (Hashtbl.mem body b) then begin
      Hashtbl.replace body b ();
      List.iter add preds.(b)
    end
  in
  ignore f;
  add tail;
  body

let run_func (p : P.t) (f : func) : bool * func =
  let changed = ref false in
  let dom = Analysis.Dominance.compute f in
  let preds = Ir.Func.preds f in
  (* Collect loop headers with their loop bodies (merging shared headers). *)
  let loops : (blockid, (blockid, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun b _ ->
      List.iter
        (fun s ->
          if Analysis.Dominance.dominates dom s b then begin
            let body = natural_loop f preds ~head:s ~tail:b in
            match Hashtbl.find_opt loops s with
            | Some acc -> Hashtbl.iter (fun k () -> Hashtbl.replace acc k ()) body
            | None -> Hashtbl.replace loops s body
          end)
        (Ir.Func.succs f b))
    f.blocks;
  if Hashtbl.length loops = 0 then (false, f)
  else begin
    (* Hoist per loop, innermost-last order is not tracked; a couple of
       passes of the whole pipeline reach the same fixpoint. *)
    let new_blocks = ref [] in
    let nb = ref (Array.length f.blocks) in
    Hashtbl.iter
      (fun head body ->
        (* Only loops with a unique outside predecessor get a preheader;
           merging several entry edges would require a phi in the preheader. *)
        let outside_preds =
          List.filter (fun pb -> not (Hashtbl.mem body pb)) preds.(head)
        in
        if List.length outside_preds <> 1 then ()
        else begin
        (* Variables defined inside the loop. *)
        let defined_in = Hashtbl.create 32 in
        Hashtbl.iter
          (fun b () ->
            List.iter
              (fun i ->
                match Instr.def_of i.kind with
                | Some d -> Hashtbl.replace defined_in d ()
                | None -> ())
              f.blocks.(b).instrs)
          body;
        let invariant_operand o =
          match o with
          | Var v -> not (Hashtbl.mem defined_in v)
          | Cst _ | Undef -> true
        in
        (* Iteratively peel invariant pure instructions from the loop. *)
        let hoisted = ref [] in
        let progress = ref true in
        while !progress do
          progress := false;
          Hashtbl.iter
            (fun b () ->
              let blk = f.blocks.(b) in
              let keep =
                List.filter
                  (fun i ->
                    let pure = not (Instr.has_side_effect i.kind) in
                    let is_load = match i.kind with Load _ -> true | _ -> false in
                    let is_phi = match i.kind with Phi _ -> true | _ -> false in
                    if
                      pure && (not is_load) && (not is_phi)
                      && List.for_all invariant_operand
                           (List.map (fun v -> Var v) (Instr.uses_of i.kind))
                    then begin
                      hoisted := i :: !hoisted;
                      (match Instr.def_of i.kind with
                      | Some d -> Hashtbl.remove defined_in d
                      | None -> ());
                      progress := true;
                      false
                    end
                    else true)
                  blk.instrs
              in
              blk.instrs <- keep)
            body
        done;
        if !hoisted <> [] then begin
          changed := true;
          (* Preheader: retarget non-back-edge predecessors of [head]. *)
          let ph = !nb in
          incr nb;
          List.iter
            (fun pb ->
              let t = f.blocks.(pb).term in
              t.tkind <-
                (match t.tkind with
                | Br (o, b1, b2) ->
                  Br (o, (if b1 = head then ph else b1), (if b2 = head then ph else b2))
                | Jmp b1 -> Jmp (if b1 = head then ph else b1)
                | Ret o -> Ret o))
            outside_preds;
          (* Phi arms in head now come from the preheader. *)
          List.iter
            (fun i ->
              match i.kind with
              | Phi (x, arms) ->
                i.kind <-
                  Phi
                    ( x,
                      List.map
                        (fun (pb, o) ->
                          if List.mem pb outside_preds then (ph, o) else (pb, o))
                        arms )
              | _ -> ())
            f.blocks.(head).instrs;
          (* Multiple outside preds all map to the same preheader: merge
             duplicate arms. *)
          List.iter
            (fun i ->
              match i.kind with
              | Phi (x, arms) ->
                let seen = Hashtbl.create 4 in
                let arms =
                  List.filter
                    (fun (pb, _) ->
                      if Hashtbl.mem seen pb then false
                      else begin
                        Hashtbl.replace seen pb ();
                        true
                      end)
                    arms
                in
                i.kind <- Phi (x, arms)
              | _ -> ())
            f.blocks.(head).instrs;
          new_blocks :=
            { bid = ph;
              instrs = List.rev !hoisted;
              term = { tlbl = P.fresh_label p; tkind = Jmp head } }
            :: !new_blocks
        end
        end)
      loops;
    if !new_blocks = [] then (!changed, f)
    else
      ( true,
        { f with
          blocks = Array.append f.blocks (Array.of_list (List.rev !new_blocks)) } )
  end

let run (p : P.t) : bool =
  let changed = ref false in
  P.map_funcs
    (fun f ->
      let c, f' = run_func p f in
      if c then changed := true;
      f')
    p;
  !changed
