(* Promotion of memory to registers — LLVM's mem2reg, the "M" of the paper's
   O0+IM baseline.

   A stack allocation is promotable when it is a single-cell scalar whose
   address is only ever the direct pointer operand of loads and stores. Such
   slots become SSA top-level variables (Var_TL); unpromoted ones remain the
   program's address-taken stack variables (Var_AT).

   Promotion is the standard algorithm: phi placement at the iterated
   dominance frontier of the store blocks, then a renaming walk over the
   dominator tree. A load before any store yields [Undef] — this is where C's
   uninitialized locals become explicit undefined values. *)

open Ir.Types
module P = Ir.Prog
module Instr = Ir.Instr

type stats = { promoted : int; phis_inserted : int }

let promotable_allocs (f : func) : (var, alloc) Hashtbl.t =
  let candidates = Hashtbl.create 16 in
  Ir.Func.iter_instrs
    (fun _ i ->
      match i.kind with
      | Alloc ({ region = Stack; asize = Fields 1; _ } as a) ->
        Hashtbl.replace candidates a.adst a
      | _ -> ())
    f;
  let disqualify v = Hashtbl.remove candidates v in
  let check_operand o =
    match o with Var v -> disqualify v | Cst _ | Undef -> ()
  in
  Ir.Func.iter_instrs
    (fun _ i ->
      match i.kind with
      | Load (_, _) -> () (* a load's pointer operand is a sanctioned use *)
      | Store (_, o) -> check_operand o (* storing the address escapes it *)
      | Copy (_, o) | Unop (_, _, o) -> check_operand o
      | Binop (_, _, o1, o2) -> check_operand o1; check_operand o2
      | Field_addr (_, y, _) -> disqualify y
      | Index_addr (_, y, o) -> disqualify y; check_operand o
      | Call c ->
        List.iter check_operand c.cargs;
        (match c.callee with Indirect v -> disqualify v | Direct _ -> ())
      | Phi (_, arms) -> List.iter (fun (_, o) -> check_operand o) arms
      | Output o -> check_operand o
      | Alloc a -> (
        match a.asize with Array_of o -> check_operand o | Fields _ -> ())
      | Const _ | Global_addr _ | Func_addr _ | Input _ -> ())
    f;
  Array.iter
    (fun b ->
      match b.term.tkind with
      | Br (o, _, _) -> check_operand o
      | Ret (Some o) -> check_operand o
      | Ret None | Jmp _ -> ())
    f.blocks;
  candidates

let run_func (p : P.t) (f : func) : func * stats =
  let f = Simplify_cfg.remove_unreachable f in
  let allocs = promotable_allocs f in
  if Hashtbl.length allocs = 0 then (f, { promoted = 0; phis_inserted = 0 })
  else begin
    let dom = Analysis.Dominance.compute f in
    (* Promote in the allocs' IR order, not Hashtbl order: bucket layout
       hashes raw var ids, which come from a process-global counter, so
       hash order makes this function's phi placement depend on how many
       variables *earlier* functions happened to allocate. IR order is
       content-determined, keeping every downstream artifact — SSA names,
       VFG shape — stable under edits elsewhere. *)
    let alloc_ids =
      let acc = ref [] in
      Ir.Func.iter_instrs
        (fun _ i ->
          match i.kind with
          | Alloc a when Hashtbl.mem allocs a.adst ->
            if not (List.memq a.adst !acc) then acc := a.adst :: !acc
          | _ -> ())
        f;
      List.rev !acc
    in
    let nalloc = List.length alloc_ids in
    let index_of = Hashtbl.create 16 in
    List.iteri (fun i v -> Hashtbl.replace index_of v i) alloc_ids;
    (* Blocks containing stores, per alloc. *)
    let def_blocks = Array.make nalloc [] in
    Ir.Func.iter_instrs
      (fun b i ->
        match i.kind with
        | Store (v, _) when Hashtbl.mem allocs v ->
          let k = Hashtbl.find index_of v in
          def_blocks.(k) <- b.bid :: def_blocks.(k)
        | _ -> ())
      f;
    (* Per-alloc liveness, so phi placement is pruned (as in LLVM): a phi is
       only placed where the promoted variable is live-in. *)
    let nb_blocks = Array.length f.blocks in
    let upward_exposed = Array.make_matrix nalloc nb_blocks false in
    let killed = Array.make_matrix nalloc nb_blocks false in
    Array.iter
      (fun b ->
        List.iter
          (fun i ->
            match i.kind with
            | Load (_, v) when Hashtbl.mem allocs v ->
              let k = Hashtbl.find index_of v in
              if not killed.(k).(b.bid) then upward_exposed.(k).(b.bid) <- true
            | Store (v, _) when Hashtbl.mem allocs v ->
              let k = Hashtbl.find index_of v in
              killed.(k).(b.bid) <- true
            | _ -> ())
          b.instrs)
      f.blocks;
    let live_in = Array.make_matrix nalloc nb_blocks false in
    let changed = ref true in
    while !changed do
      changed := false;
      for b = nb_blocks - 1 downto 0 do
        let succ_live k =
          List.exists (fun s -> live_in.(k).(s)) (Ir.Func.succs f b)
        in
        for k = 0 to nalloc - 1 do
          let v = upward_exposed.(k).(b) || ((not killed.(k).(b)) && succ_live k) in
          if v && not live_in.(k).(b) then begin
            live_in.(k).(b) <- true;
            changed := true
          end
        done
      done
    done;
    (* Iterated dominance frontier, pruned by liveness. *)
    let phi_blocks = Array.make nalloc [] in
    for k = 0 to nalloc - 1 do
      let placed = Hashtbl.create 8 in
      let work = Queue.create () in
      List.iter (fun b -> Queue.push b work) def_blocks.(k);
      while not (Queue.is_empty work) do
        let b = Queue.pop work in
        List.iter
          (fun df ->
            if not (Hashtbl.mem placed df) then begin
              Hashtbl.replace placed df ();
              if live_in.(k).(df) then phi_blocks.(k) <- df :: phi_blocks.(k);
              Queue.push df work
            end)
          (Analysis.Dominance.frontier dom b)
      done
    done;
    (* Materialize phi instructions (operands filled during renaming). *)
    let preds = Ir.Func.preds f in
    let phi_var : (blockid * int, var) Hashtbl.t = Hashtbl.create 16 in
    let phi_count = ref 0 in
    for k = 0 to nalloc - 1 do
      let aname = (Hashtbl.find allocs (List.nth alloc_ids k)).aname in
      List.iter
        (fun b ->
          if Analysis.Dominance.reachable dom b then begin
            let v = P.fresh_var p ~name:aname ~owner:f.fname in
            Hashtbl.replace phi_var (b, k) v;
            incr phi_count;
            let blk = f.blocks.(b) in
            let arms = List.map (fun pb -> (pb, Undef)) preds.(b) in
            blk.instrs <-
              { lbl = P.fresh_label p; kind = Phi (v, arms) } :: blk.instrs
          end)
        phi_blocks.(k)
    done;
    (* Renaming walk. [subst] replaces promoted load results. *)
    let stacks = Array.make nalloc [ (Undef : operand) ] in
    let subst : (var, operand) Hashtbl.t = Hashtbl.create 64 in
    let rec resolve (o : operand) : operand =
      match o with
      | Var v -> (
        match Hashtbl.find_opt subst v with
        | Some o' -> resolve o'
        | None -> o)
      | Cst _ | Undef -> o
    in
    let rec walk (b : blockid) =
      let blk = f.blocks.(b) in
      let pushed = Array.make nalloc 0 in
      let keep =
        List.filter
          (fun ins ->
            match ins.kind with
            | Phi (x, _) -> (
              (* Promoted phis define their alloc's current value. *)
              match
                Hashtbl.fold
                  (fun (pb, k) v acc -> if pb = b && v = x then Some k else acc)
                  phi_var None
              with
              | Some k ->
                stacks.(k) <- Var x :: stacks.(k);
                pushed.(k) <- pushed.(k) + 1;
                true
              | None -> true)
            | Load (x, v) when Hashtbl.mem allocs v ->
              let k = Hashtbl.find index_of v in
              Hashtbl.replace subst x (List.hd stacks.(k));
              false
            | Store (v, o) when Hashtbl.mem allocs v ->
              let k = Hashtbl.find index_of v in
              stacks.(k) <- resolve o :: stacks.(k);
              pushed.(k) <- pushed.(k) + 1;
              false
            | Alloc a when Hashtbl.mem allocs a.adst -> false
            | _ ->
              ins.kind <- Instr.map_operands resolve ins.kind;
              true)
          blk.instrs
      in
      blk.instrs <- keep;
      blk.term.tkind <- Instr.map_term_operands resolve blk.term.tkind;
      (* Fill phi operands of successors. *)
      List.iter
        (fun s ->
          for k = 0 to nalloc - 1 do
            match Hashtbl.find_opt phi_var (s, k) with
            | Some v ->
              let sblk = f.blocks.(s) in
              List.iter
                (fun ins ->
                  match ins.kind with
                  | Phi (x, arms) when x = v ->
                    ins.kind <-
                      Phi
                        ( x,
                          List.map
                            (fun (pb, o) ->
                              if pb = b then (pb, List.hd stacks.(k)) else (pb, o))
                            arms )
                  | _ -> ())
                sblk.instrs
            | None -> ()
          done)
        (Ir.Func.succs f b);
      List.iter walk (Analysis.Dominance.children dom b);
      for k = 0 to nalloc - 1 do
        for _ = 1 to pushed.(k) do
          stacks.(k) <- List.tl stacks.(k)
        done
      done
    in
    walk 0;
    (* Phi operands referencing promoted loads in predecessor blocks were
       resolved during the walk via [stacks]; any remaining subst targets in
       phi arms are cleaned here. *)
    Ir.Func.iter_instrs
      (fun _ ins -> ins.kind <- Instr.map_operands resolve ins.kind)
      f;
    (f, { promoted = nalloc; phis_inserted = !phi_count })
  end

let run (p : P.t) : stats =
  let total = ref { promoted = 0; phis_inserted = 0 } in
  P.iter_funcs
    (fun f ->
      let f', s = run_func p f in
      P.update_func p f';
      total :=
        {
          promoted = !total.promoted + s.promoted;
          phis_inserted = !total.phis_inserted + s.phis_inserted;
        })
    p;
  !total
