(* Guided instrumentation — the paper's key contribution (§3.4, Figure 7).

   Starting from the uses at critical operations, instrumentation-item sets
   are propagated backwards over the VFG:

   - ⊥-nodes are instrumented as in full instrumentation and propagate the
     requirement to their dependencies;
   - ⊤-nodes whose shadow location can be *strongly updated* (assignments,
     parameters, allocations, strong-update stores) emit a single
     [sigma := T] and cut the propagation — their upstream flows need no
     tracking at all;
   - ⊤-nodes that cannot strongly update (weak/semi-strong stores, call
     chis, memory phis, virtual parameters) emit nothing and pass the
     requirement through their memory dependencies.

   Opt I (value-flow simplification, §3.5.1) is folded in here: a needed
   ⊥ top-level node whose must-flow closure has interior structure reads the
   conjunction of its ⊥ sources directly, so the interior nodes only get
   instrumented if something else needs them. *)

open Ir.Types
module P = Ir.Prog

type options = { opt1 : bool }

type result = {
  plan : Item.plan;
  needed_nodes : int;    (* VFG nodes reached by the propagation *)
  opt1_simplified : int; (* closures simplified (Table 1's "S" column) *)
}

let op_shadow = Full.op_shadow
let conj_of = Full.conj_of

let build ?(options = { opt1 = true }) ?distrusted (bld : Vfg.Build.t)
    (gamma : Vfg.Resolve.gamma) : result =
  let have_distrust =
    match distrusted with Some d -> Hashtbl.length d > 0 | None -> false
  in
  let p = bld.prog in
  let g = bld.graph in
  let plan = Item.empty_plan p in
  let rs = plan.ret_slot in
  let simplified = ref 0 in
  (* Side tables. *)
  let instr_of = Array.make (P.nlabels p) None in
  P.iter_instrs (fun _ _ i -> instr_of.(i.lbl) <- Some i) p;
  let instr_at lbl = Option.get instr_of.(lbl) in
  let callsites_of : (fname, (label * operand list) list) Hashtbl.t =
    Hashtbl.create 16
  in
  P.iter_instrs
    (fun _ _ i ->
      match i.kind with
      | Call { cargs; _ } ->
        List.iter
          (fun target ->
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt callsites_of target)
            in
            Hashtbl.replace callsites_of target ((i.lbl, cargs) :: prev))
          (Analysis.Callgraph.site_callees bld.cg i.lbl)
      | _ -> ())
    p;
  let param_index : (var, fname * int) Hashtbl.t = Hashtbl.create 64 in
  P.iter_funcs
    (fun f -> List.iteri (fun i prm -> Hashtbl.replace param_index prm (f.fname, i)) f.params)
    p;
  let def_tbls : (fname, (var, instr_kind) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  let defs_of fn =
    match Hashtbl.find_opt def_tbls fn with
    | Some d -> d
    | None ->
      let tbl = Hashtbl.create 64 in
      Ir.Func.iter_instrs
        (fun _ i ->
          match Ir.Instr.def_of i.kind with
          | Some d -> Hashtbl.replace tbl d i.kind
          | None -> ())
        (P.get_func p fn);
      Hashtbl.replace def_tbls fn tbl;
      tbl
  in
  (* Dedup helpers for shared emission points. *)
  let ret_relay_done : (label, unit) Hashtbl.t = Hashtbl.create 16 in
  let arg_relay_done : (label * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let emit_ret_relays callee =
    List.iter
      (fun (rl, ro) ->
        if not (Hashtbl.mem ret_relay_done rl) then begin
          Hashtbl.replace ret_relay_done rl ();
          let o = match ro with Some o -> o | None -> Undef in
          Item.add plan rl Before (Item.Set_global (rs, o))
        end)
      (Option.value ~default:[] (Hashtbl.find_opt bld.ret_operands callee))
  in
  let emit_arg_relays fn idx =
    List.iter
      (fun (clbl, cargs) ->
        if not (Hashtbl.mem arg_relay_done (clbl, idx)) then begin
          Hashtbl.replace arg_relay_done (clbl, idx) ();
          match List.nth_opt cargs idx with
          | Some arg -> Item.add plan clbl Before (Item.Set_global (idx, arg))
          | None -> ()
        end)
      (Option.value ~default:[] (Hashtbl.find_opt callsites_of fn))
  in
  (* Worklist propagation. *)
  let needed = Array.make (Vfg.Graph.nnodes g) false in
  let work = Queue.create () in
  let need id =
    if not needed.(id) then begin
      needed.(id) <- true;
      Queue.push id work
    end
  in
  let need_succs id =
    List.iter (fun (d, _) -> need d) (Vfg.Graph.succs g id)
  in
  let need_mem_succs id =
    List.iter
      (fun (d, _) ->
        match Vfg.Graph.node_of g d with
        | Vfg.Graph.Mem _ -> need d
        | Vfg.Graph.Root_t | Vfg.Graph.Root_f | Vfg.Graph.Top _ -> ())
      (Vfg.Graph.succs g id)
  in
  let undef id = Vfg.Resolve.is_undef gamma id in
  let process id =
    match Vfg.Graph.node_of g id with
    | Vfg.Graph.Root_t | Vfg.Graph.Root_f -> ()
    | Vfg.Graph.Top x -> (
      match Vfg.Graph.def_of g id with
      | Vfg.Graph.Dparam fn ->
        let _, idx = Hashtbl.find param_index x in
        if not (undef id) then
          (* [⊤-Para] *)
          Item.add_entry plan fn (Item.Set_var (x, Item.Rconst true))
        else begin
          (* [⊥-Para] *)
          Item.add_entry plan fn (Item.Set_var (x, Item.Rglobal idx));
          emit_arg_relays fn idx;
          need_succs id
        end
      | Vfg.Graph.Dinstr (fn, lbl) -> (
        if not (undef id) then
          (* [⊤-Assign]: every top-level definition admits a strong update. *)
          Item.add plan lbl After (Item.Set_var (x, Item.Rconst true))
        else
          let i = instr_at lbl in
          let mfc_simplify () =
            if not options.opt1 then false
            else begin
              let mfc = Vfg.Mfc.compute (defs_of fn) x in
              if not (Vfg.Mfc.simplifiable mfc) then false
              else begin
                incr simplified;
                if Vfg.Mfc.has_undef_source mfc then begin
                  Item.add plan lbl After (Item.Set_var (x, Item.Rconst false));
                  (* The closure's verdict is constant; nothing upstream
                     needs tracking for x's sake. *)
                  true
                end
                else begin
                  let bot_sources =
                    List.filter
                      (fun s ->
                        match Vfg.Graph.find g (Vfg.Graph.Top s) with
                        | Some sid -> undef sid
                        | None -> false)
                      (Vfg.Mfc.var_sources mfc)
                  in
                  Item.add plan lbl After
                    (Item.Set_var
                       ( x,
                         if bot_sources = [] then Item.Rconst true
                         else Item.Rconj bot_sources ));
                  List.iter
                    (fun s ->
                      match Vfg.Graph.find g (Vfg.Graph.Top s) with
                      | Some sid -> need sid
                      | None -> ())
                    bot_sources;
                  true
                end
              end
            end
          in
          match i.kind with
          | Const (_, _) ->
            Item.add plan lbl After (Item.Set_var (x, Item.Rconst true))
          | Copy (_, o) ->
            if not (mfc_simplify ()) then begin
              Item.add plan lbl After (Item.Set_var (x, op_shadow o));
              need_succs id
            end
          | Unop (_, _, o) ->
            if not (mfc_simplify ()) then begin
              Item.add plan lbl After (Item.Set_var (x, conj_of [ o ]));
              need_succs id
            end
          | Binop (_, _, o1, o2) ->
            if not (mfc_simplify ()) then begin
              Item.add plan lbl After (Item.Set_var (x, conj_of [ o1; o2 ]));
              need_succs id
            end
          | Phi (_, arms) ->
            Item.add plan lbl After (Item.Set_var (x, Item.Rphi arms));
            need_succs id
          | Global_addr _ | Func_addr _ | Input _ ->
            Item.add plan lbl After (Item.Set_var (x, Item.Rconst true))
          | Field_addr (_, y, _) ->
            Item.add plan lbl After (Item.Set_var (x, conj_of [ Var y ]));
            need_succs id
          | Index_addr (_, y, o) ->
            Item.add plan lbl After (Item.Set_var (x, conj_of [ Var y; o ]));
            need_succs id
          | Alloc _ ->
            Item.add plan lbl After (Item.Set_var (x, Item.Rconst true))
          | Load (_, y) ->
            (* [⊥-Load] *)
            Item.add plan lbl After (Item.Set_var (x, Item.Rmem y));
            need_succs id
          | Call _ ->
            (* [⊥-Ret] destination side; source side at each callee ret. *)
            Item.add plan lbl After (Item.Set_var (x, Item.Rglobal rs));
            List.iter (fun callee -> emit_ret_relays callee)
              (Analysis.Callgraph.site_callees bld.cg lbl);
            need_succs id
          | Store _ | Output _ -> ())
      | Vfg.Graph.Dchi _ | Vfg.Graph.Dmemphi _ | Vfg.Graph.Dentry _
      | Vfg.Graph.Droot ->
        ())
    | Vfg.Graph.Mem (_, _, _) -> (
      match Vfg.Graph.def_of g id with
      | Vfg.Graph.Dchi (_, lbl) -> (
        let i = instr_at lbl in
        match i.kind with
        | Alloc a ->
          if not (undef id) then
            (* [⊤-Alloc] (only alloc_T chis can be ⊤) *)
            Item.add plan lbl After (Item.Set_mem_object (a.adst, true))
          else begin
            (* [⊥-Alloc] *)
            Item.add plan lbl After
              (Item.Set_mem_object (a.adst, a.initialized));
            need_mem_succs id
          end
        | Store (xp, o) ->
          if not (undef id) then begin
            match Hashtbl.find_opt bld.store_kind lbl with
            | Some Vfg.Build.Strong ->
              (* [⊤-Store_SU] *)
              Item.add plan lbl After (Item.Set_mem (xp, Item.Mconst true))
            | Some (Vfg.Build.Semi_strong | Vfg.Build.Weak) | None ->
              (* [⊤-Store_WU/SemiSU], refined: the requirement flows to the
                 older (or allocation-site) version, and the dynamically
                 written cell still records the stored value's shadow —
                 sigma(y) is T under Γ, but writing it through the pointer
                 keeps shadow memory accurate when this ⊤ version merges
                 with a ⊥ path downstream (otherwise the alloc's F would
                 survive the store and report a false positive). *)
              Item.add plan lbl After (Item.Set_mem (xp, Item.Mop o));
              need_mem_succs id
          end
          else begin
            (* [⊥-Store] *)
            Item.add plan lbl After (Item.Set_mem (xp, Item.Mop o));
            need_succs id
          end
        | _ ->
          (* chi at a call site ([VRet]): collect across the edges. *)
          if undef id then need_succs id else need_mem_succs id)
      | Vfg.Graph.Dmemphi _ | Vfg.Graph.Dentry _ ->
        (* [Phi] / [VPara]: no runtime item; shadow memory is global. *)
        need_succs id
      | Vfg.Graph.Dinstr _ | Vfg.Graph.Dparam _ | Vfg.Graph.Droot -> ())
  in
  (* Seeds: the uses at critical operations. *)
  List.iter
    (fun (c : Vfg.Build.critical) ->
      match c.cop with
      | Var x -> (
        match Vfg.Graph.find g (Vfg.Graph.Top x) with
        | Some id ->
          if undef id then begin
            Item.add plan c.clbl Before (Item.Check (Var x));
            need id
          end
        | None -> ())
      | Undef -> Item.add plan c.clbl Before (Item.Check Undef)
      | Cst _ -> ())
    bld.criticals;
  (* Usher_TL: memory is not tracked statically, so the memory side keeps
     full instrumentation — stores write shadow cells, allocs initialize
     shadow objects — and every value stored into (untracked) memory must
     itself be shadowed correctly, so store operands seed the traversal.

     The same overlay is applied whenever the distrust set is non-empty: a
     distrusted function runs under full instrumentation and reads shadow
     memory at every load, so every store program-wide must keep shadow
     memory accurate (a pruned trusted-side store would leave a stale
     default behind for the distrusted reader). *)
  if (not bld.config.track_memory) || have_distrust then
    P.iter_instrs
      (fun _ _ i ->
        match i.kind with
        | Store (x, o) ->
          Item.add plan i.lbl After (Item.Set_mem (x, Item.Mop o));
          (match o with
          | Var y -> (
            match Vfg.Graph.find g (Vfg.Graph.Top y) with
            | Some id -> need id
            | None -> ())
          | Cst _ | Undef -> ())
        | Alloc a ->
          Item.add plan i.lbl After (Item.Set_mem_object (a.adst, a.initialized))
        | _ -> ())
      p;
  (* Degradation ladder: with a non-empty distrust set the guided plan must
     interoperate with full (MSan) instrumentation inside the distrusted
     functions. Shadow memory is already kept accurate program-wide by the
     overlay above; here we fix up the calling protocol across the trust
     boundary, then overlay the full item set onto each distrusted function
     ([Item.add] deduplicates, so overlap with guided items is harmless). *)
  (match distrusted with
  | None -> ()
  | Some dset when Hashtbl.length dset = 0 -> ()
  | Some dset ->
    let is_distrusted fn = Hashtbl.mem dset fn in
    let need_var y =
      match Vfg.Graph.find g (Vfg.Graph.Top y) with
      | Some id -> need id
      | None -> ()
    in
    (* Trusted functions callable from a distrusted caller. *)
    let callees_of_d : (fname, unit) Hashtbl.t = Hashtbl.create 16 in
    P.iter_instrs
      (fun f _ i ->
        match i.kind with
        | Call { cdst; cargs; _ } ->
          let targets = Analysis.Callgraph.site_callees bld.cg i.lbl in
          if is_distrusted f.fname then
            List.iter
              (fun t ->
                if not (is_distrusted t) then Hashtbl.replace callees_of_d t ())
              targets
          else if List.exists is_distrusted targets then begin
            (* Trusted caller into distrusted callee: pass every argument
               shadow ([⊥-Para] source side — the callee's full entry items
               read sigma_g) and consume the return shadow the callee's
               full instrumentation relays. *)
            List.iteri
              (fun idx arg ->
                Item.add plan i.lbl Before (Item.Set_global (idx, arg));
                match arg with
                | Var y -> need_var y
                | Cst _ | Undef -> ())
              cargs;
            match cdst with Some x -> need_var x | None -> ()
          end
        | _ -> ())
      p;
    (* Trusted callees of distrusted callers: relay return shadows (the
       caller's full instrumentation reads sigma_g[rs] after the call) and
       make the callee honor the sigma_g argument protocol on entry. *)
    Hashtbl.iter
      (fun gname () ->
        emit_ret_relays gname;
        List.iter
          (fun (_, ro) ->
            match ro with Some (Var y) -> need_var y | _ -> ())
          (Option.value ~default:[] (Hashtbl.find_opt bld.ret_operands gname));
        List.iter need_var (P.get_func p gname).params)
      callees_of_d;
    Hashtbl.iter
      (fun fn _ -> Full.instrument_func plan (P.get_func p fn))
      dset);
  while not (Queue.is_empty work) do
    process (Queue.pop work)
  done;
  let needed_nodes = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 needed in
  { plan; needed_nodes; opt1_simplified = !simplified }
