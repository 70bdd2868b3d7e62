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
   (and propagations) suppressed by the new ⊤ states disappear. *)

open Ir.Types

type result = {
  gamma : Resolve.gamma;   (* resolved on the modified graph *)
  redirected : int;        (* |union of R_x| — the paper's R column *)
}

let run ?(context_sensitive = true) ?budget (bld : Build.t) : result =
  let g = Graph.copy bld.graph in
  let troot = Graph.intern g Graph.Root_t in
  let p = bld.prog in
  (* Per-function dominance caches. *)
  let doms : (fname, Analysis.Dominance.t * Analysis.Dominance.label_positions) Hashtbl.t =
    Hashtbl.create 16
  in
  let dom_of fn =
    match Hashtbl.find_opt doms fn with
    | Some d -> d
    | None ->
      let f = Ir.Prog.get_func p fn in
      let d = (Analysis.Dominance.compute f, Analysis.Dominance.label_positions f) in
      Hashtbl.replace doms fn d;
      d
  in
  (* Per-function block reachability (via >= 1 CFG edge), lazily computed
     per source block. Dominance alone is not enough to rewire: s
     dominating def(r) only orders the FIRST executions. If def(r) can
     reach s again through a back edge, r's value arrives at a *later*
     execution of s — and rewiring r to T would re-resolve x at s to
     defined, deleting the very check the "already reported at s"
     argument relies on. (Found by fuzzing: a loop accumulating an
     uninitialized array cell into its own index variable.) *)
  let reach_tbls :
      (fname, (blockid, (blockid, unit) Hashtbl.t) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let block_reaches fn b1 b2 =
    let tbl =
      match Hashtbl.find_opt reach_tbls fn with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 8 in
        Hashtbl.replace reach_tbls fn t;
        t
    in
    let set =
      match Hashtbl.find_opt tbl b1 with
      | Some s -> s
      | None ->
        let f = Ir.Prog.get_func p fn in
        let s = Hashtbl.create 16 in
        let stack = ref (Ir.Func.succs f b1) in
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | b :: rest ->
            stack := rest;
            if not (Hashtbl.mem s b) then begin
              Hashtbl.replace s b ();
              stack := Ir.Func.succs f b @ !stack
            end
        done;
        Hashtbl.replace tbl b1 s;
        s
    in
    Hashtbl.mem set b2
  in
  (* Per-function def tables for MFC computation. *)
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
        (Ir.Prog.get_func p fn);
      Hashtbl.replace def_tbls fn tbl;
      tbl
  in
  (* Loads annotated with a single concrete location extend the closure into
     memory (Algorithm 1, line 4). *)
  let objects = bld.pa.objects in
  let concrete_loc l =
    let o = Analysis.Objects.loc_obj objects l in
    (not o.oarray)
    && (match o.okind with
       | Analysis.Objects.Obj_global -> true
       | Analysis.Objects.Obj_stack ->
         not (Analysis.Callgraph.is_recursive bld.cg o.oowner)
       | Analysis.Objects.Obj_heap | Analysis.Objects.Obj_func _ -> false)
  in
  let redirected = Hashtbl.create 64 in
  List.iter
    (fun (c : Build.critical) ->
      (match budget with
      | Some b -> Diag.Budget.tick b Diag.Opt2
      | None -> ());
      match c.cop with
      | Var x ->
        let defs = defs_of c.cfunc in
        let closure = Mfc.compute defs x in
        (* Closure node ids: members plus concrete mu locations of member
           loads. *)
        let in_closure = Hashtbl.create 32 in
        let closure_ids = ref [] in
        let add_id id =
          if not (Hashtbl.mem in_closure id) then begin
            Hashtbl.replace in_closure id ();
            closure_ids := id :: !closure_ids
          end
        in
        List.iter
          (fun v ->
            (match Graph.find g (Graph.Top v) with
            | Some id -> add_id id
            | None -> ());
            match Hashtbl.find_opt defs v with
            | Some (Load (_, _)) when bld.config.track_memory ->
              let fs = Memssa.func_ssa bld.mssa c.cfunc in
              let lbl =
                match Graph.find g (Graph.Top v) with
                | Some id -> (
                  match Graph.def_of g id with
                  | Graph.Dinstr (_, l) -> Some l
                  | _ -> None)
                | None -> None
              in
              (match lbl with
              | Some l -> (
                match Memssa.mu_at fs l with
                | [ (loc, ver) ] when concrete_loc loc -> (
                  match Graph.find g (Graph.Mem (c.cfunc, loc, ver)) with
                  | Some id -> add_id id
                  | None -> ())
                | _ -> ())
              | None -> ())
            | _ -> ())
          closure.members;
        (* R_x: nodes outside the closure with an edge into it. *)
        let dom, pos = dom_of c.cfunc in
        Hashtbl.iter
          (fun t () ->
            List.iter
              (fun (r, _) ->
                if not (Hashtbl.mem in_closure r) then begin
                  (* Does s dominate r's defining statement (same function)? *)
                  let def_lbl =
                    match Graph.def_of g r with
                    | Graph.Dinstr (fn, l) | Graph.Dchi (fn, l) ->
                      if fn = c.cfunc then Some l else None
                    | Graph.Dparam _ | Graph.Dmemphi _ | Graph.Dentry _
                    | Graph.Droot ->
                      None
                  in
                  (* Rewire only when def(r) cannot re-reach s: with s
                     dominating def(r) AND no CFG path from def(r)'s
                     block back to s's block, r's value can never be
                     consumed at s, and (must-flow) never anywhere else
                     either — so suppressing its downstream checks loses
                     nothing. A back path means the value is genuinely
                     used at s's next execution; keep everything. *)
                  let cannot_re_reach l =
                    match (Hashtbl.find_opt pos l, Hashtbl.find_opt pos c.clbl)
                    with
                    | Some (bl, _), Some (bs, _) ->
                      not (block_reaches c.cfunc bl bs)
                    | _ -> false
                  in
                  match def_lbl with
                  | Some l
                    when Analysis.Dominance.label_dominates dom pos c.clbl l
                         && cannot_re_reach l ->
                    (* Replace r's edges into the closure by r -> T,
                       touching only those edges: T's dependents list
                       grows with every rewiring and is never walked. *)
                    let into =
                      List.filter
                        (fun (d, _) -> Hashtbl.mem in_closure d)
                        (Graph.succs g r)
                    in
                    if into <> [] then begin
                      List.iter (fun (d, k) -> Graph.remove_edge g ~src:r ~dst:d k) into;
                      Graph.add_edge g ~src:r ~dst:troot Eintra;
                      Hashtbl.replace redirected r ()
                    end
                  | _ -> ()
                end)
              (Graph.preds g t))
          in_closure
      | Cst _ | Undef -> ())
    bld.criticals;
  let gamma = Resolve.resolve ~context_sensitive ?budget g in
  { gamma; redirected = Hashtbl.length redirected }
