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
   instrumented if something else needs them.

   What a traversal reads besides Γ is the build's program index
   ([Vfg.Index]: the instruction kind at a label, a parameter's position)
   and a [context] of the graph, built once and shared by every variant
   planned over that graph: the call sites of each callee, Opt I's
   closure walker and the traversal's scratch arrays. [build] is the
   one-variant case. *)

open Ir.Types
module P = Ir.Prog

type options = { opt1 : bool }

type result = {
  plan : Item.plan;
  needed_nodes : int;    (* VFG nodes reached by the propagation *)
  opt1_simplified : int; (* closures simplified (Table 1's "S" column) *)
}

type context = {
  bld : Vfg.Build.t;
  callsites_of : (fname, (label * operand list) list) Hashtbl.t;
  mfc : Vfg.Mfc.t Lazy.t;                       (* Opt I's closure walker *)
  queue : int array;       (* a traversal's worklist, by node, FIFO *)
  needed : int array;      (* by node: the last traversal that needed it *)
  mutable traversals : int;
}

let context (bld : Vfg.Build.t) : context =
  let p = bld.prog in
  let callsites_of = Hashtbl.create 16 in
  let add site target =
    let prev = try Hashtbl.find callsites_of target with Not_found -> [] in
    Hashtbl.replace callsites_of target (site :: prev)
  in
  P.iter_instrs
    (fun _ _ i ->
      match i.kind with
      | Call { cargs; _ } ->
        List.iter (add (i.lbl, cargs)) (Analysis.Callgraph.site_callees bld.cg i.lbl)
      | _ -> ())
    p;
  {
    bld;
    callsites_of;
    mfc = lazy (Vfg.Mfc.create bld.index);
    queue = Array.make (Vfg.Graph.nnodes bld.graph) 0;
    needed = Array.make (Vfg.Graph.nnodes bld.graph) (-1);
    traversals = 0;
  }

let plan ?(options = { opt1 = true }) ?distrusted (ctx : context)
    (gamma : Vfg.Resolve.gamma) : result =
  let have_distrust =
    match distrusted with Some d -> Hashtbl.length d > 0 | None -> false
  in
  let bld = ctx.bld in
  let p = bld.prog in
  let g = bld.graph in
  let plan = Item.empty_plan p in
  let rs = plan.ret_slot in
  let simplified = ref 0 in
  let kind_at lbl = Vfg.Index.kind bld.index lbl in
  let top_of x = Vfg.Graph.top_id g x in
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
      (Option.value ~default:[] (Hashtbl.find_opt ctx.callsites_of fn))
  in
  (* Worklist propagation: [queue.(head .. tail - 1)] is still to do,
     and [queue.(0 .. tail - 1)] are the nodes needed so far. *)
  ctx.traversals <- ctx.traversals + 1;
  let this = ctx.traversals and head = ref 0 and tail = ref 0 in
  let need id =
    if ctx.needed.(id) <> this then begin
      ctx.needed.(id) <- this;
      ctx.queue.(!tail) <- id;
      incr tail
    end
  in
  let need_var y =
    let id = top_of y in
    if id >= 0 then need id
  in
  let need_succs id = Vfg.Graph.iter_succs g id (fun d _ -> need d) in
  let need_mem_succs id =
    Vfg.Graph.iter_succs g id (fun d _ -> if Vfg.Graph.is_mem g d then need d)
  in
  let undef id = Vfg.Resolve.is_undef gamma id in
  (* Opt I at the ⊥ definition of [x]: when its must-flow closure has
     interior structure, [x] reads the conjunction of the closure's ⊥
     sources directly (or F outright when an undef operand feeds it), and
     nothing upstream needs tracking for [x]'s sake. *)
  let simplify lbl x =
    let m = Lazy.force ctx.mfc in
    Vfg.Mfc.walk m ~func:(Vfg.Index.label_func bld.index lbl) x;
    Vfg.Mfc.simplifiable m
    && begin
         incr simplified;
         let bot =
           List.filter (fun s -> top_of s >= 0 && undef (top_of s)) (Vfg.Mfc.var_sources m)
         in
         let undef_source = Vfg.Mfc.has_undef_source m in
         let rhs =
           if undef_source then Item.Rconst false
           else if bot = [] then Item.Rconst true
           else Item.Rconj bot
         in
         Item.add plan lbl After (Item.Set_var (x, rhs));
         if not undef_source then List.iter need_var bot;
         true
       end
  in
  let process id =
    let x = Vfg.Graph.top_var g id in
    if x >= 0 then begin
      match Vfg.Graph.def_of g id with
      | Vfg.Graph.Dparam fn ->
        let idx = Vfg.Index.param_pos bld.index x in
        if not (undef id) then
          (* [⊤-Para] *)
          Item.add_entry plan fn (Item.Set_var (x, Item.Rconst true))
        else begin
          (* [⊥-Para] *)
          Item.add_entry plan fn (Item.Set_var (x, Item.Rglobal idx));
          emit_arg_relays fn idx;
          need_succs id
        end
      | Vfg.Graph.Dinstr (_, lbl) -> (
        if not (undef id) then
          (* [⊤-Assign]: every top-level definition admits a strong update. *)
          Item.add plan lbl After (Item.Set_var (x, Item.Rconst true))
        else
          let kind = kind_at lbl in
          match kind with
          | (Copy _ | Unop _ | Binop _) when options.opt1 && simplify lbl x -> ()
          | _ -> (
            (* The ⊥ rules of full instrumentation. *)
            Option.iter (Item.add plan lbl After) (Full.def_action rs kind);
            match kind with
            | Const _ | Global_addr _ | Func_addr _ | Input _ | Alloc _ | Store _
            | Output _ ->
              (* Always defined, or no register: nothing upstream. *)
              ()
            | Call _ ->
              (* [⊥-Ret]'s source side is at each callee's returns. *)
              List.iter emit_ret_relays (Analysis.Callgraph.site_callees bld.cg lbl);
              need_succs id
            | _ -> need_succs id))
      | Vfg.Graph.Dchi _ | Vfg.Graph.Dmemphi _ | Vfg.Graph.Dentry _
      | Vfg.Graph.Droot ->
        ()
    end
    else if Vfg.Graph.is_mem g id then begin
      match Vfg.Graph.def_of g id with
      | Vfg.Graph.Dchi (_, lbl) -> (
        match kind_at lbl with
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
      | Vfg.Graph.Dinstr _ | Vfg.Graph.Dparam _ | Vfg.Graph.Droot -> ()
    end
  in
  (* Seeds: the uses at critical operations. *)
  List.iter
    (fun (c : Vfg.Build.critical) ->
      match c.cop with
      | Var x ->
        let id = top_of x in
        if id >= 0 && undef id then begin
          Item.add plan c.clbl Before (Item.Check (Var x));
          need id
        end
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
          (match o with Var y -> need_var y | Cst _ | Undef -> ())
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
  while !head < !tail do
    incr head;
    process ctx.queue.(!head - 1)
  done;
  { plan; needed_nodes = !tail; opt1_simplified = !simplified }

let build ?options ?distrusted (bld : Vfg.Build.t) (gamma : Vfg.Resolve.gamma) :
    result =
  plan ?options ?distrusted (context bld) gamma
