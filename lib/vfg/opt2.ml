(* Opt II — Redundant Check Elimination (Algorithm 1, Fig. 9).

   For each top-level variable x used at a critical statement s: every node r
   outside x's must-flow closure that feeds into the closure, and whose
   defining statement is dominated by s, is rewired to depend on T instead.
   Rationale: an undefined value entering the closure is necessarily reported
   at s (must-flow!), and s executes before r's definition, so r's own
   downstream checks would only repeat the report.

   Definedness is then re-resolved on the modified graph. Per the paper,
   guided instrumentation afterwards runs on the *original* graph structure
   with the new Γ, so shadow initialization stays correct while the checks
   (and propagations) suppressed by the new ⊤ states disappear.

   The pass does work in proportion to the graph, in three trace spans
   inside [phase.opt2]:
   - [opt2.closure] takes every critical's closure as a run of node ids,
     with [Mfc.walk] over the program index ([Analysis.Index], which
     Memory SSA built and both graph builds read). A closure
     reads only IR defs and memory SSA, never edges, so all of them can be
     taken before any rewiring. Membership is a stamped int array: no
     per-critical table is allocated.
   - [opt2.rewire] walks each closure's members on an edge-only copy of the
     graph ([Graph.copy_edges]), in critical order. Dominance is the
     index's; the per-block CFG reachability rows are computed only for
     the functions and blocks a candidate r needs.
   - [opt2.resolve] re-resolves Γ on the rewired copy. *)

open Ir.Types
module Index = Analysis.Index

type result = {
  gamma : Resolve.gamma;   (* resolved on the modified graph *)
  redirected : int;        (* |union of R_x| — the paper's R column *)
}

(* Every critical's closure node ids, as CSR over the criticals in order:
   the [Top] node of each member of x's must-flow closure ([Mfc.walk], in
   its preorder), each member load's followed by the node of its concrete
   mu location (Algorithm 1, line 4). A critical whose operand is not a
   variable has an empty closure. *)
type closures = {
  crit : Build.critical array;
  cfunc : int array;           (* critical -> function number *)
  off : int array;             (* length ncrit + 1 *)
  nodes : int array;
}

let closures ?budget (bld : Build.t) (g : Graph.t) : closures =
  let ix = Memssa.index bld.mssa in
  let crit = Array.of_list bld.criticals in
  let ncrit = Array.length crit in
  let cfunc = Array.map (fun (c : Build.critical) -> Index.label_func ix c.clbl) crit in
  let off = Array.make (ncrit + 1) 0 in
  let nodes = ref (Array.make 64 0) in
  let nn = ref 0 in
  let node_mark = Array.make (Graph.nnodes g) (-1) in
  (* Loads annotated with a single concrete location extend the closure into
     memory. The location node of a load is memoized per variable: -2 not
     yet looked up, -1 none. *)
  let mem_memo = Array.make (Index.nvars ix) (-2) in
  let mem_node fname l =
    match Memssa.mu_at bld.mssa l with
    | [ (loc, ver) ] when Build.concrete bld.cg (Analysis.Objects.loc_obj bld.pa.objects loc)
      -> (
      match Graph.find g (Graph.Mem (fname, loc, ver)) with Some m -> m | None -> -1)
    | _ -> -1
  in
  let add i id =
    if node_mark.(id) <> i then begin
      node_mark.(id) <- i;
      if !nn = Array.length !nodes then begin
        let a = Array.make (2 * !nn) 0 in
        Array.blit !nodes 0 a 0 !nn;
        nodes := a
      end;
      !nodes.(!nn) <- id;
      incr nn
    end
  in
  let track_memory = bld.config.track_memory in
  let mfc = Mfc.create ix in
  for i = 0 to ncrit - 1 do
    (match budget with
    | Some b -> Diag.Budget.tick b Diag.Opt2
    | None -> ());
    (match crit.(i).cop with
    | Var x ->
      Mfc.walk mfc ~func:cfunc.(i) x;
      for k = 0 to Mfc.nmembers mfc - 1 do
        let v = Mfc.member mfc k in
        let id = Graph.top_id g v in
        if id >= 0 then begin
          add i id;
          match Mfc.def mfc v with
          | Load _ when track_memory ->
            if mem_memo.(v) = -2 then
              mem_memo.(v) <- mem_node crit.(i).cfunc (Index.def_label ix v);
            if mem_memo.(v) >= 0 then add i mem_memo.(v)
          | _ -> ()
        end
      done
    | Cst _ | Undef -> ());
    off.(i + 1) <- !nn
  done;
  { crit; cfunc; off; nodes = !nodes }

(* Block reachability (via >= 1 CFG edge), one byte row per source block
   of a function, computed on first query. Dominance alone is not enough to
   rewire: s dominating def(r) only orders the FIRST executions. If def(r)
   can reach s again through a back edge, r's value arrives at a *later*
   execution of s — and rewiring r to T would re-resolve x at s to defined,
   deleting the very check the "already reported at s" argument relies on.
   (Found by fuzzing: a loop accumulating an uninitialized array cell into
   its own index variable.) *)
let block_reaches (rows : Bytes.t array array) (f : func) fi b1 b2 =
  let nb = Array.length f.blocks in
  if Array.length rows.(fi) = 0 then rows.(fi) <- Array.make nb Bytes.empty;
  if Bytes.length rows.(fi).(b1) = 0 then begin
    let row = Bytes.make nb '\000' in
    let stack = Array.make nb 0 in
    let sp = ref 0 in
    let push b =
      if Bytes.get row b = '\000' then begin
        Bytes.set row b '\001';
        stack.(!sp) <- b;
        incr sp
      end
    in
    List.iter push (Ir.Func.succs f b1);
    while !sp > 0 do
      decr sp;
      List.iter push (Ir.Func.succs f stack.(!sp))
    done;
    rows.(fi).(b1) <- row
  end;
  Bytes.get rows.(fi).(b1) b2 = '\001'

(* Rewires [g] in place, critical by critical; returns |R|. *)
let rewire (ix : Index.t) (cl : closures) (g : Graph.t) : int =
  let troot = Graph.intern g Graph.Root_t in
  let n = Graph.nnodes g in
  let in_closure = Array.make n (-1) in
  let decided = Array.make n (-1) in
  let redirected = Bytes.make n '\000' in
  let count = ref 0 in
  let rows = Array.make (Index.nfuncs ix) [||] in
  for i = 0 to Array.length cl.crit - 1 do
    let lo = cl.off.(i) and hi = cl.off.(i + 1) in
    if hi > lo then begin
      let s = cl.crit.(i).clbl in
      let fi = cl.cfunc.(i) in
      for k = lo to hi - 1 do
        in_closure.(cl.nodes.(k)) <- i
      done;
      let bs = Index.label_block ix s in
      (* Rewire r only when s dominates def(r) (same function) AND no CFG
         path leads from def(r)'s block back to s's block: then r's value
         can never be consumed at s, and (must-flow) never anywhere else
         either — so suppressing its downstream checks loses nothing. A
         back path means the value is genuinely used at s's next
         execution; keep everything. *)
      let qualifies r =
        match Graph.def_of g r with
        | Graph.Dinstr (_, l) | Graph.Dchi (_, l) ->
          Index.label_func ix l = fi
          && Index.dominates ix s l
          && not (block_reaches rows (Index.func ix fi) fi (Index.label_block ix l) bs)
        | Graph.Dparam _ | Graph.Dmemphi _ | Graph.Dentry _ | Graph.Droot -> false
      in
      (* R_x: nodes outside the closure with an edge into it. Whether r
         qualifies does not depend on the edges, so each r is decided once
         per critical. *)
      for k = lo to hi - 1 do
        Graph.iter_preds g cl.nodes.(k) (fun r _ ->
            if in_closure.(r) <> i && decided.(r) <> i then begin
              decided.(r) <- i;
              if qualifies r then begin
                (* Replace r's edges into the closure by r -> T, touching
                   only those edges: T's dependents list grows with every
                   rewiring and is never walked. *)
                let moved = ref false in
                Graph.iter_succs g r (fun d kind ->
                    if in_closure.(d) = i then begin
                      Graph.remove_edge g ~src:r ~dst:d kind;
                      moved := true
                    end);
                if !moved then begin
                  Graph.add_edge g ~src:r ~dst:troot Graph.intra;
                  if Bytes.get redirected r = '\000' then begin
                    Bytes.set redirected r '\001';
                    incr count
                  end
                end
              end
            end)
      done
    end
  done;
  !count

let rewired ?budget (bld : Build.t) : Graph.t * int =
  let g = Graph.copy_edges bld.graph in
  let cl =
    Obs.Trace.with_span ~cat:"vfg" "opt2.closure" (fun () -> closures ?budget bld g)
  in
  let redirected =
    Obs.Trace.with_span ~cat:"vfg" "opt2.rewire" (fun () -> rewire (Memssa.index bld.mssa) cl g)
  in
  (g, redirected)

let run ?(context_sensitive = true) ?budget (bld : Build.t) : result =
  let g, redirected = rewired ?budget bld in
  let gamma =
    Obs.Trace.with_span ~cat:"vfg" "opt2.resolve" (fun () ->
        Resolve.resolve ~context_sensitive ?budget g)
  in
  { gamma; redirected }
