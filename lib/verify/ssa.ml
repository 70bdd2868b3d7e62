(* Verify.Ssa — certificate checker for Memory SSA well-formedness.

   Independently recomputes, per function, what the mu/chi side tables MUST
   contain — raw annotation sets from the points-to results, tracked /
   virtual-parameter location lists from the MOD/REF summaries — and then
   checks the version discipline of the recorded tables directly:

   - every (location, version) pair has exactly one definition (entry,
     chi, or memory phi), versions are dense in [1, nversions];
   - every use (mu, chi's old operand, ret_vers, phi argument) is dominated
     by its definition, via [Analysis.Dominance] on block/instr positions;
   - mu/chi sets at loads, stores, allocs and calls match the points-to and
     MOD/REF-derived sets exactly (so no annotation is dropped or invented);
   - phi arguments cover exactly the reachable CFG predecessors;
   - virtual input/output parameters are consistent across the call graph:
     a callee's entry locations all appear among the caller's mu/chi at
     every resolved call site, and its out locations among the chis —
     the invariant the VFG builder silently assumes when wiring
     interprocedural memory edges;
   - the MOD/REF summaries themselves are a pre-fixpoint of their
     constraint system (local loads/stores/allocs plus lifted callee
     summaries), so the sets the annotations are drawn from are sound.

   No renaming walk, no dominance-frontier phi placement: the checker
   validates the recorded result, it does not rebuild it.

   Trusts: the IR, the object table, the call graph's site resolution, and
   the points-to sets (audited separately by [Verify.Pta]). *)

open Ir.Types
module P = Ir.Prog
module A = Analysis.Andersen
module Objects = Analysis.Objects
module Bitset = Analysis.Bitset
module Callgraph = Analysis.Callgraph
module Modref = Analysis.Modref
module Dominance = Analysis.Dominance

(* Statement positions for dominance tests: (block, index) with -1 = block
   entry (memory phis, the function entry), [max_int - 1] = terminator,
   [max_int] = end of block (phi-argument sources). *)
let dominates_pos dom (b1, i1) (b2, i2) =
  if b1 = b2 then i1 < i2 else Dominance.strictly_dominates dom b1 b2

let sorted l = List.sort_uniq compare l

let check ?budget ?(skip = fun (_ : fname) -> false) (p : P.t) (pa : A.t)
    (cg : Callgraph.t) (mr : Modref.t) (mssa : Memssa.t) : Report.t =
  let t0 = Obs.Clock.now_s () in
  let r = Report.create "ssa" in
  let objects = pa.A.objects in
  let tick () =
    match budget with Some b -> Diag.Budget.tick b Diag.Verify | None -> ()
  in
  let lname l = Objects.loc_name objects l in
  let pts v = A.pts_var pa v in
  (* Reimplementation of the summary-lifting filter: a non-recursive
     callee's own stack frame is dead in the caller. *)
  let lift_keep ~callee ~callee_recursive l =
    let o = Objects.loc_obj objects l in
    not
      (o.Objects.okind = Objects.Obj_stack
      && o.Objects.oowner = callee
      && not callee_recursive)
  in
  let lifted_union pick lbl =
    let acc = Bitset.create () in
    List.iter
      (fun g ->
        let s = Modref.summary mr g in
        let rg = Callgraph.is_recursive cg g in
        Bitset.iter
          (fun l ->
            if lift_keep ~callee:g ~callee_recursive:rg l then
              ignore (Bitset.add acc l))
          (pick s))
      (Callgraph.site_callees cg lbl);
    acc
  in
  let same_locs ~func what expected actual =
    Report.fact r;
    let e = sorted expected and a = sorted actual in
    if e <> a then
      let missing = List.filter (fun l -> not (List.mem l a)) e in
      let extra = List.filter (fun l -> not (List.mem l e)) a in
      Report.violation ~func r "%s: expected {%s}, got {%s}%s%s" (what ())
        (String.concat "," (List.map lname e))
        (String.concat "," (List.map lname a))
        (match missing with
        | [] -> ""
        | l :: _ -> Printf.sprintf " — missing %s" (lname l))
        (match extra with
        | [] -> ""
        | l :: _ -> Printf.sprintf " — spurious %s" (lname l))
  in
  (* -------- MOD/REF summaries are a pre-fixpoint (checked first: the
     mu/chi replay below draws its expectations from them). -------- *)
  let subset_summary ~func ~src ~dst what =
    Report.fact r;
    match Bitset.diff_new ~src ~old:dst with
    | [] -> ()
    | w :: _ ->
      Report.violation ~func r "%s: %s missing" (what ()) (lname w)
  in
  P.iter_funcs
    (fun f ->
      if not (skip f.fname) then begin
        let func = f.fname in
        let s = Modref.summary mr f.fname in
        Ir.Func.iter_instrs
          (fun _ i ->
            tick ();
            match i.kind with
            | Load (_, y) ->
              subset_summary ~func ~src:(pts y) ~dst:s.Modref.mref (fun () ->
                  Printf.sprintf "modref %s: l%d load REF" func i.lbl)
            | Store (x, _) ->
              subset_summary ~func ~src:(pts x) ~dst:s.Modref.mmod (fun () ->
                  Printf.sprintf "modref %s: l%d store MOD" func i.lbl);
              subset_summary ~func ~src:(pts x) ~dst:s.Modref.mref (fun () ->
                  Printf.sprintf "modref %s: l%d store REF (chi uses)" func
                    i.lbl)
            | Alloc _ ->
              List.iter
                (fun oid ->
                  Objects.iter_obj_locs objects oid (fun l ->
                      Report.fact r;
                      if not (Bitset.mem s.Modref.mmod l) then
                        Report.violation ~func r
                          "modref %s: l%d alloc MOD missing %s" func i.lbl
                          (lname l)))
                (Objects.objs_of_site objects i.lbl)
            | Call _ ->
              subset_summary ~func
                ~src:(lifted_union (fun gs -> gs.Modref.mref) i.lbl)
                ~dst:s.Modref.mref
                (fun () -> Printf.sprintf "modref %s: l%d callee REF" func i.lbl);
              subset_summary ~func
                ~src:(lifted_union (fun gs -> gs.Modref.mmod) i.lbl)
                ~dst:s.Modref.mmod
                (fun () -> Printf.sprintf "modref %s: l%d callee MOD" func i.lbl)
            | Const _ | Copy _ | Unop _ | Binop _ | Field_addr _ | Index_addr _
            | Global_addr _ | Func_addr _ | Phi _ | Output _ | Input _ -> ())
          f
      end)
    p;
  (* -------- Per-function Memory SSA. -------- *)
  let check_func (f : func) =
    let func = f.fname in
    match Memssa.func_ssa mssa f.fname with
    | exception Not_found ->
      Report.violation ~func r "no Memory SSA recorded for %s" func
    | fs ->
      let dom = Dominance.compute f in
      let recursive = Callgraph.is_recursive cg f.fname in
      let own_stack l =
        let o = Objects.loc_obj objects l in
        o.Objects.okind = Objects.Obj_stack
        && o.Objects.oowner = f.fname
        && not recursive
      in
      (* Expected raw annotation sets, recomputed from pts / MOD-REF. *)
      let expected_mu i =
        match i.kind with
        | Load (_, y) -> Bitset.elements (pts y)
        | Call _ -> Bitset.elements (lifted_union (fun s -> s.Modref.mref) i.lbl)
        | _ -> []
      in
      let expected_chi i =
        match i.kind with
        | Store (x, _) -> Bitset.elements (pts x)
        | Alloc _ ->
          List.concat_map
            (fun oid ->
              let acc = ref [] in
              Objects.iter_obj_locs objects oid (fun l -> acc := l :: !acc);
              !acc)
            (Objects.objs_of_site objects i.lbl)
        | Call _ -> Bitset.elements (lifted_union (fun s -> s.Modref.mmod) i.lbl)
        | _ -> []
      in
      (* Tracked / virtual-parameter lists. *)
      let s = Modref.summary mr f.fname in
      let exp_tracked = Bitset.create () in
      Ir.Func.iter_instrs
        (fun _ i ->
          List.iter (fun l -> ignore (Bitset.add exp_tracked l)) (expected_mu i);
          List.iter (fun l -> ignore (Bitset.add exp_tracked l)) (expected_chi i))
        f;
      Bitset.iter (fun l -> ignore (Bitset.add exp_tracked l)) s.Modref.mref;
      Bitset.iter (fun l -> ignore (Bitset.add exp_tracked l)) s.Modref.mmod;
      let exp_tracked = Bitset.elements exp_tracked in
      same_locs ~func
        (fun () -> Printf.sprintf "%s: tracked locations" func)
        exp_tracked fs.Memssa.tracked;
      same_locs ~func
        (fun () -> Printf.sprintf "%s: virtual input parameters" func)
        (List.filter (fun l -> not (own_stack l)) exp_tracked)
        fs.Memssa.entry_locs;
      same_locs ~func
        (fun () -> Printf.sprintf "%s: virtual output parameters" func)
        (Bitset.elements s.Modref.mmod |> List.filter (fun l -> not (own_stack l)))
        fs.Memssa.out_locs;
      (* Definition table: (loc, version) -> position, single-def check. *)
      let defs : (Memssa.loc * int, int * int) Hashtbl.t = Hashtbl.create 64 in
      let def ~at (l, v) =
        Report.fact r;
        if v < 1 then
          Report.violation ~func r "%s: %s_%d: non-positive version" func
            (lname l) v
        else if Hashtbl.mem defs (l, v) then
          Report.violation ~func r "%s: %s_%d defined more than once" func
            (lname l) v
        else Hashtbl.replace defs (l, v) at
      in
      List.iter (fun l -> def ~at:(0, -1) (l, 1)) fs.Memssa.tracked;
      Array.iter
        (fun b ->
          if Dominance.reachable dom b.bid then begin
            List.iter
              (fun (phi : Memssa.memphi) ->
                def ~at:(b.bid, -1) (phi.Memssa.mloc, phi.Memssa.mver))
              (Memssa.phis_at fs b.bid);
            List.iteri
              (fun idx i ->
                List.iter
                  (fun (l, nv, _) -> def ~at:(b.bid, idx) (l, nv))
                  (Memssa.chi_at mssa i.lbl))
              b.instrs
          end)
        f.blocks;
      (* Versions are dense: 1..nversions(l), each defined exactly once. *)
      let nversions : (Memssa.loc, int) Hashtbl.t = Hashtbl.create 64 in
      List.iteri
        (fun k l -> Hashtbl.replace nversions l fs.Memssa.versions.(k))
        fs.Memssa.tracked;
      List.iter
        (fun l ->
          tick ();
          match Hashtbl.find_opt nversions l with
          | None ->
            Report.violation ~func r "%s: tracked %s has no version count" func
              (lname l)
          | Some n ->
            for v = 1 to n do
              Report.fact r;
              if not (Hashtbl.mem defs (l, v)) then
                Report.violation ~func r "%s: %s_%d never defined" func
                  (lname l) v
            done)
        fs.Memssa.tracked;
      Hashtbl.iter
        (fun (l, v) _ ->
          let n = Option.value ~default:0 (Hashtbl.find_opt nversions l) in
          if v > n then
            Report.violation ~func r "%s: %s_%d exceeds version count %d" func
              (lname l) v n)
        defs;
      let use ~at (l, v) what =
        Report.fact r;
        match Hashtbl.find_opt defs (l, v) with
        | None ->
          Report.violation ~func r "%s: %s uses undefined %s_%d" func (what ())
            (lname l) v
        | Some dp ->
          if not (dominates_pos dom dp at) then
            Report.violation ~func r "%s: %s: def of %s_%d does not dominate it"
              func (what ()) (lname l) v
      in
      let preds = Ir.Func.preds f in
      Array.iter
        (fun b ->
          tick ();
          if Dominance.reachable dom b.bid then begin
            (* Phi arguments: one per reachable CFG predecessor, each version
               live at the end of that predecessor. *)
            List.iter
              (fun (phi : Memssa.memphi) ->
                let l = phi.Memssa.mloc in
                let arg_blocks = sorted (List.map fst phi.Memssa.margs) in
                let want =
                  sorted
                    (List.filter (Dominance.reachable dom) preds.(b.bid))
                in
                Report.fact r;
                if arg_blocks <> want then
                  Report.violation ~func r
                    "%s: memphi for %s in b%d: argument blocks {%s} <> \
                     reachable predecessors {%s}"
                    func (lname l) b.bid
                    (String.concat "," (List.map string_of_int arg_blocks))
                    (String.concat "," (List.map string_of_int want));
                List.iter
                  (fun (pb, v) ->
                    use ~at:(pb, max_int) (l, v) (fun () ->
                        Printf.sprintf "memphi arg from b%d in b%d" pb b.bid))
                  phi.Memssa.margs)
              (Memssa.phis_at fs b.bid);
            List.iteri
              (fun idx i ->
                tick ();
                same_locs ~func
                  (fun () -> Printf.sprintf "%s: l%d mu set" func i.lbl)
                  (expected_mu i)
                  (List.map fst (Memssa.mu_at mssa i.lbl));
                same_locs ~func
                  (fun () -> Printf.sprintf "%s: l%d chi set" func i.lbl)
                  (expected_chi i)
                  (List.map (fun (l, _, _) -> l) (Memssa.chi_at mssa i.lbl));
                List.iter
                  (fun (l, v) ->
                    use ~at:(b.bid, idx) (l, v) (fun () ->
                        Printf.sprintf "l%d mu" i.lbl))
                  (Memssa.mu_at mssa i.lbl);
                List.iter
                  (fun (l, _, ov) ->
                    use ~at:(b.bid, idx) (l, ov) (fun () ->
                        Printf.sprintf "l%d chi old operand" i.lbl))
                  (Memssa.chi_at mssa i.lbl))
              b.instrs;
            match b.term.tkind with
            | Ret _ ->
              let rv = Memssa.ret_vers_at mssa b.term.tlbl in
              same_locs ~func
                (fun () -> Printf.sprintf "%s: l%d ret out set" func b.term.tlbl)
                fs.Memssa.out_locs (List.map fst rv);
              List.iter
                (fun (l, v) ->
                  use ~at:(b.bid, max_int - 1) (l, v) (fun () ->
                      Printf.sprintf "l%d ret out version" b.term.tlbl))
                rv
            | Br _ | Jmp _ -> ()
          end
          else
            (* Unreachable blocks are never renamed: no annotations. *)
            List.iter
              (fun i ->
                Report.fact r;
                if
                  Memssa.mu_at mssa i.lbl <> [] || Memssa.chi_at mssa i.lbl <> []
                then
                  Report.violation ~func r
                    "%s: l%d in unreachable b%d carries annotations" func i.lbl
                    b.bid)
              b.instrs)
        f.blocks;
      (* Virtual in/out parameter consistency across the call graph: every
         entry location of a resolved callee must be readable at the site
         (mu or chi), every out location writable (chi) — otherwise the VFG
         builder silently drops the interprocedural memory edge. *)
      Array.iter
        (fun b ->
          if Dominance.reachable dom b.bid then
            List.iter
              (fun i ->
                match i.kind with
                | Call _ ->
                  let mu_locs = List.map fst (Memssa.mu_at mssa i.lbl) in
                  let chi_locs =
                    List.map (fun (l, _, _) -> l) (Memssa.chi_at mssa i.lbl)
                  in
                  List.iter
                    (fun g ->
                      if not (skip g) then
                        match Memssa.func_ssa mssa g with
                        | exception Not_found -> ()
                        | gfs ->
                          List.iter
                            (fun l ->
                              Report.fact r;
                              if
                                not
                                  (List.mem l mu_locs || List.mem l chi_locs)
                              then
                                Report.violation ~func r
                                  "%s: l%d call to %s: entry location %s has \
                                   no mu/chi at the site"
                                  func i.lbl g (lname l))
                            gfs.Memssa.entry_locs;
                          List.iter
                            (fun l ->
                              Report.fact r;
                              if not (List.mem l chi_locs) then
                                Report.violation ~func r
                                  "%s: l%d call to %s: out location %s has no \
                                   chi at the site"
                                  func i.lbl g (lname l))
                            gfs.Memssa.out_locs)
                    (Callgraph.site_callees cg i.lbl)
                | _ -> ())
              b.instrs)
        f.blocks
  in
  P.iter_funcs (fun f -> if not (skip f.fname) then check_func f) p;
  Report.finish r ~wall_s:(Obs.Clock.now_s () -. t0)
