(* Verify.Vfg — certificate checkers for the value-flow graph and for Γ.

   [check_structure] replays every edge- and definition-site rule of the
   VFG builder against the finished graph using find-only lookups (nothing
   is ever interned or added): roots, parameter and entry nodes, memory
   phis, per-instruction dependence edges, the strong / semi-strong / weak
   store-update shapes (the update kind is RECLASSIFIED here from the
   points-to results, dominance and an independent derives-from-allocation
   walk, then compared against the builder's recorded kind), and the
   interprocedural call/return and virtual-parameter edges. It also checks
   graph-representation invariants: succ/pred adjacency is symmetric, edge
   counts agree, node interning round-trips, and — modulo nodes owned by
   explicitly skipped (distrusted) functions — every node has a definition
   site. A missing expected edge is an error; an edge matched by no rule is
   only a warning, because extra edges can only grow F-reachability, which
   is the sound direction.

   [check_gamma] validates Γ as a genuine fixpoint of F-reachability: an
   independent node-level backwards search from the F root with 1-callsite
   call-string matching (no SCC condensation — the solver's optimization is
   exactly what we refuse to share) recomputes the reachable set, recording
   a parent edge at each first visit. Every node Γ resolves ⊥ must be
   reached (otherwise Γ is not the least fixpoint), and every reached node
   must be ⊥ (otherwise Γ is unsound) — in which case the reconstructed
   path witness to F is re-validated edge by edge against the graph and
   printed.

   Trusts: the IR, the object table, Memory SSA and the call graph (audited
   by Verify.Ssa) and the points-to sets (audited by Verify.Pta). *)

open Ir.Types
module P = Ir.Prog
module Objects = Analysis.Objects
module Callgraph = Analysis.Callgraph
module Dominance = Analysis.Dominance
module G = Deps.Vfg.Graph
module B = Deps.Vfg.Build
module R = Deps.Vfg.Resolve

let kc_name k =
  if G.is_intra k then "intra"
  else Printf.sprintf "%s@l%d" (if G.is_call k then "call" else "ret") (G.label k)

(* The graph's distinct edges, for lookups that allocate nothing: open
   addressing over one int key per edge, [src * nnodes + dst], with the
   edge's (immediate) kind beside it; -1 keys an empty slot. [matched]
   marks, by slot, the edges some construction rule expects. *)
type edges = {
  nnodes : int;
  keys : int array;
  kinds : G.kind array;
  matched : Bytes.t;
  mutable distinct : int;
}

(* Room for [n] edges, at most half full. *)
let edges_create nnodes n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { nnodes; keys = Array.make !cap (-1); kinds = Array.make !cap G.intra;
    matched = Bytes.make !cap '\000'; distinct = 0 }

(* The slot holding an edge, or the empty slot where it would go. *)
let edge_slot e src dst k =
  let key = (src * e.nnodes) + dst and mask = Array.length e.keys - 1 in
  let i = ref (Hashtbl.hash key land mask) in
  while e.keys.(!i) >= 0 && not (e.keys.(!i) = key && e.kinds.(!i) = k) do
    i := (!i + 1) land mask
  done;
  !i

let edge_add e src dst k =
  let i = edge_slot e src dst k in
  if e.keys.(i) < 0 then begin
    e.keys.(i) <- (src * e.nnodes) + dst;
    e.kinds.(i) <- k;
    e.distinct <- e.distinct + 1
  end

(* Independent reimplementation of the semi-strong derivation test: does
   [x] derive exclusively from the allocation destination [z] through
   copies, phis and address computations? Conservative [false] on cycles. *)
let derives_from (defs : (var, instr_kind) Hashtbl.t) (x : var) (z : var) :
    bool =
  let visiting = Hashtbl.create 8 in
  let rec go v =
    v = z
    || (not (Hashtbl.mem visiting v))
       && begin
         Hashtbl.replace visiting v ();
         match Hashtbl.find_opt defs v with
         | Some (Copy (_, Var y)) -> go y
         | Some (Phi (_, arms)) ->
           arms <> []
           && List.for_all
                (fun (_, o) ->
                  match o with Var y -> go y | Cst _ | Undef -> false)
                arms
         | Some (Field_addr (_, y, _)) | Some (Index_addr (_, y, _)) -> go y
         | _ -> false
       end
  in
  go x

let check_structure ?budget ?(skip = fun (_ : fname) -> false) ?(name = "vfg")
    (bld : B.t) : Report.t =
  let t0 = Obs.Clock.now_s () in
  let r = Report.create name in
  let g = bld.B.graph in
  let p = bld.B.prog in
  let pa = bld.B.pa in
  let cg = bld.B.cg in
  let mssa = bld.B.mssa in
  let config = bld.B.config in
  let objects = pa.Analysis.Andersen.objects in
  let tick () =
    match budget with Some b -> Diag.Budget.tick b Diag.Verify | None -> ()
  in
  let nstr n = G.node_to_string p objects n in
  let owner = function
    | G.Root_t | G.Root_f -> ""
    | G.Top v -> (P.varinfo p v).vowner
    | G.Mem (fn, _, _) -> fn
  in
  match (G.find g G.Root_t, G.find g G.Root_f) with
  | None, _ | _, None ->
    Report.violation r "graph is missing its T or F root";
    Report.finish r ~wall_s:(Obs.Clock.now_s () -. t0)
  | Some troot, Some froot ->
    if G.def_of g troot <> G.Droot then
      Report.violation r "T root has a non-root definition site";
    if G.def_of g froot <> G.Droot then
      Report.violation r "F root has a non-root definition site";
    (* -------- Representation invariants. -------- *)
    let nsucc = ref 0 and npred = ref 0 in
    let count_succ _ _ = incr nsucc and count_pred _ _ = incr npred in
    for id = 0 to G.nnodes g - 1 do
      G.iter_succs g id count_succ
    done;
    let have = edges_create (G.nnodes g) !nsucc in
    (* [at] is the node whose lists are being walked. *)
    let at = ref 0 in
    let add_succ d k = edge_add have !at d k in
    let check_pred s k =
      Report.fact r;
      if have.keys.(edge_slot have s !at k) < 0 then
        Report.violation r "pred edge %s -[%s]-> %s has no matching succ entry"
          (nstr (G.node_of g s)) (kc_name k) (nstr (G.node_of g !at))
    in
    G.iter_nodes
      (fun id n ->
        tick ();
        Report.fact r;
        (match G.find g n with
        | Some id' when id' = id -> ()
        | _ ->
          Report.violation r "node %s does not round-trip through interning"
            (nstr n));
        at := id;
        G.iter_succs g id add_succ;
        G.iter_preds g id count_pred)
      g;
    for id = 0 to G.nnodes g - 1 do
      at := id;
      G.iter_preds g id check_pred
    done;
    Report.fact r;
    if !nsucc <> G.nedges g || !npred <> G.nedges g then
      Report.violation r
        "edge count mismatch: %d succ entries, %d pred entries, nedges=%d"
        !nsucc !npred (G.nedges g);
    Report.fact r;
    if have.distinct <> !nsucc then
      Report.violation r "duplicate succ entries: %d listed, %d distinct"
        !nsucc have.distinct;
    (* -------- Full rule replay (find-only). -------- *)
    let missing_reported = Hashtbl.create 16 in
    let node ~func what n =
      match G.find g n with
      | Some _ as found -> found
      | None ->
        if not (Hashtbl.mem missing_reported n) then begin
          Hashtbl.replace missing_reported n ();
          Report.violation ~func r "%s: node %s was never built" (what ())
            (nstr n)
        end;
        None
    in
    let expect_edge ~func ?(what = fun () -> "") src dst k =
      Report.fact r;
      let i = edge_slot have src dst k in
      if have.keys.(i) >= 0 then Bytes.set have.matched i '\001'
      else
        Report.violation ~func r "missing edge %s -[%s]-> %s%s"
          (nstr (G.node_of g src))
          (kc_name k)
          (nstr (G.node_of g dst))
          (match what () with "" -> "" | w -> " (" ^ w ^ ")")
    in
    (* By node: the definition site a rule expects; [Droot] for none. *)
    let exp_def = Array.make (G.nnodes g) G.Droot in
    let expect_def id d = exp_def.(id) <- d in
    let op_node ~func what gname o =
      ignore gname;
      match o with
      | Cst _ -> Some troot
      | Undef -> Some froot
      | Var v -> node ~func what (G.Top v)
    in
    let crit_set = Hashtbl.create 64 in
    List.iter
      (fun (c : B.critical) ->
        Hashtbl.replace crit_set (c.B.clbl, c.B.cop, c.B.cfunc) ())
      bld.B.criticals;
    let expect_critical ~func lbl op =
      Report.fact r;
      if not (Hashtbl.mem crit_set (lbl, op, func)) then
        Report.violation ~func r
          "l%d: critical operand not recorded for instrumentation" lbl
    in
    let process_func (f : func) =
      let fn = f.fname in
      let func = fn in
      match Memssa.func_ssa mssa fn with
      | exception Not_found ->
        Report.violation ~func r "no Memory SSA for %s while checking its VFG"
          fn
      | fs ->
        let dom = lazy (Dominance.compute f) in
        let pos = lazy (Dominance.label_positions f) in
        let defs =
          lazy
            (let defs : (var, instr_kind) Hashtbl.t = Hashtbl.create 64 in
             Ir.Func.iter_instrs
               (fun _ i ->
                 match Ir.Instr.def_of i.kind with
                 | Some d -> Hashtbl.replace defs d i.kind
                 | None -> ())
               f;
             defs)
        in
        (* Recorded return-operand table matches the function's returns. *)
        let rets = ref [] in
        Array.iter
          (fun b ->
            match b.term.tkind with
            | Ret o -> rets := (b.term.tlbl, o) :: !rets
            | Br _ | Jmp _ -> ())
          f.blocks;
        Report.fact r;
        let recorded =
          Option.value ~default:[] (Hashtbl.find_opt bld.B.ret_operands fn)
        in
        if List.sort compare !rets <> List.sort compare recorded then
          Report.violation ~func r
            "%s: recorded return-operand table disagrees with the IR" fn;
        let mem_node what l ver = node ~func what (G.Mem (fn, l, ver)) in
        List.iter
          (fun prm ->
            match node ~func (fun () -> fn ^ " parameter") (G.Top prm) with
            | Some id -> expect_def id (G.Dparam fn)
            | None -> ())
          f.params;
        if config.B.track_memory then begin
          let is_entry = Hashtbl.create 16 in
          List.iter
            (fun l -> Hashtbl.replace is_entry l ())
            fs.Memssa.entry_locs;
          List.iter
            (fun l ->
              match mem_node (fun () -> fn ^ " entry version") l 1 with
              | Some id ->
                expect_def id (G.Dentry fn);
                if fn = "main" || not (Hashtbl.mem is_entry l) then
                  expect_edge ~func id troot G.intra
                    ~what:(fun () -> "entry state is defined")
              | None -> ())
            fs.Memssa.tracked;
          Array.iter
            (fun b ->
              List.iter
                (fun (phi : Memssa.memphi) ->
                  let l = phi.Memssa.mloc in
                  match
                    mem_node (fun () -> "memory phi") l phi.Memssa.mver
                  with
                  | Some id ->
                    expect_def id (G.Dmemphi (fn, b.bid));
                    List.iter
                      (fun (_, argver) ->
                        match
                          mem_node (fun () -> "memory phi argument") l argver
                        with
                        | Some a ->
                          expect_edge ~func id a G.intra
                            ~what:(fun () -> "memory phi argument")
                        | None -> ())
                      phi.Memssa.margs
                  | None -> ())
                (Memssa.phis_at fs b.bid))
            f.blocks
        end;
        (* The label of the instruction being replayed. *)
        let cur = ref 0 in
        let what () = Printf.sprintf "l%d" !cur in
        let def_top x =
          let found = node ~func what (G.Top x) in
          (match found with Some id -> expect_def id (G.Dinstr (fn, !cur)) | None -> ());
          found
        in
        let dep id o =
          match op_node ~func what fn o with
          | Some d -> expect_edge ~func ~what id d G.intra
          | None -> ()
        in
        let dep_opt id o = match id with Some id -> dep id o | None -> () in
        Ir.Func.iter_instrs
          (fun _ i ->
            tick ();
            cur := i.lbl;
            match i.kind with
            | Const (x, _) -> dep_opt (def_top x) (Cst 0)
            | Copy (x, o) -> dep_opt (def_top x) o
            | Unop (x, _, o) -> dep_opt (def_top x) o
            | Binop (x, _, o1, o2) ->
              let id = def_top x in
              dep_opt id o1;
              dep_opt id o2
            | Phi (x, arms) ->
              let id = def_top x in
              List.iter (fun (_, o) -> dep_opt id o) arms
            | Global_addr (x, _) | Func_addr (x, _) | Input x ->
              dep_opt (def_top x) (Cst 0)
            | Field_addr (x, y, _) -> dep_opt (def_top x) (Var y)
            | Index_addr (x, y, o) ->
              let id = def_top x in
              dep_opt id (Var y);
              dep_opt id o
            | Alloc a ->
              dep_opt (def_top a.adst) (Cst 0);
              if config.B.track_memory then
                List.iter
                  (fun (l, nv, ov) ->
                    match mem_node what l nv with
                    | Some id -> (
                      expect_def id (G.Dchi (fn, i.lbl));
                      expect_edge ~func ~what id
                        (if a.initialized then troot else froot)
                        G.intra;
                      match mem_node what l ov with
                      | Some old -> expect_edge ~func ~what id old G.intra
                      | None -> ())
                    | None -> ())
                  (Memssa.chi_at mssa i.lbl)
            | Load (x, y) ->
              expect_critical ~func i.lbl (Var y);
              let id = def_top x in
              if config.B.track_memory then
                List.iter
                  (fun (l, ver) ->
                    match (id, mem_node what l ver) with
                    | Some id, Some m ->
                      expect_edge ~func ~what id m G.intra
                    | _ -> ())
                  (Memssa.mu_at mssa i.lbl)
              else
                Option.iter
                  (fun id -> expect_edge ~func ~what id froot G.intra)
                  id
            | Store (x, o) ->
              expect_critical ~func i.lbl (Var x);
              let recorded_kind = Hashtbl.find_opt bld.B.store_kind i.lbl in
              if config.B.track_memory then begin
                let chis = Memssa.chi_at mssa i.lbl in
                (* Independent reclassification of the update kind. *)
                let kind =
                  match chis with
                  | [ (l, _, _) ] -> (
                    let ob = Objects.loc_obj objects l in
                    let concrete =
                      (not ob.Objects.oarray)
                      &&
                      match ob.Objects.okind with
                      | Objects.Obj_global -> true
                      | Objects.Obj_stack ->
                        not (Callgraph.is_recursive cg ob.Objects.oowner)
                      | Objects.Obj_heap | Objects.Obj_func _ -> false
                    in
                    if concrete then B.Strong
                    else if not config.B.semi_strong then B.Weak
                    else if
                      (not ob.Objects.oarray)
                      && ob.Objects.osite >= 0
                      &&
                      match Ir.Func.find_instr f ob.Objects.osite with
                      | Some (_, ai) -> (
                        match ai.kind with
                        | Alloc a ->
                          Dominance.label_dominates (Lazy.force dom)
                            (Lazy.force pos) ob.Objects.osite i.lbl
                          && derives_from (Lazy.force defs) x a.adst
                        | _ -> false)
                      | None -> false
                    then B.Semi_strong
                    else B.Weak)
                  | _ -> B.Weak
                in
                Report.fact r;
                if recorded_kind <> Some kind then
                  Report.violation ~func r
                    "l%d: store classified %s by the builder, %s by replay"
                    i.lbl
                    (match recorded_kind with
                    | Some B.Strong -> "strong"
                    | Some B.Semi_strong -> "semi-strong"
                    | Some B.Weak -> "weak"
                    | None -> "<unrecorded>")
                    (match kind with
                    | B.Strong -> "strong"
                    | B.Semi_strong -> "semi-strong"
                    | B.Weak -> "weak");
                List.iter
                  (fun (l, nv, ov) ->
                    match mem_node what l nv with
                    | Some id -> (
                      expect_def id (G.Dchi (fn, i.lbl));
                      (match op_node ~func what fn o with
                      | Some d -> expect_edge ~func ~what id d G.intra
                      | None -> ());
                      match kind with
                      | B.Strong -> ()
                      | B.Semi_strong -> (
                        let oo = Objects.loc_obj objects l in
                        let alloc_ver =
                          List.find_map
                            (fun (l', _, ov') ->
                              if l' = l then Some ov' else None)
                            (* the allocation's chi, when it is in [f] *)
                            (if Hashtbl.mem (Lazy.force pos) oo.Objects.osite
                             then Memssa.chi_at mssa oo.Objects.osite
                             else [])
                        in
                        let old_ver =
                          match alloc_ver with Some av -> av | None -> ov
                        in
                        match mem_node what l old_ver with
                        | Some old ->
                          expect_edge ~func id old G.intra
                            ~what:(fun () -> "semi-strong bypass")
                        | None -> ())
                      | B.Weak -> (
                        match mem_node what l ov with
                        | Some old -> expect_edge ~func ~what id old G.intra
                        | None -> ()))
                    | None -> ())
                  chis
              end
              else begin
                Report.fact r;
                if recorded_kind <> Some B.Weak then
                  Report.violation ~func r
                    "l%d: top-level-only store must be recorded weak" i.lbl
              end
            | Call { cdst; cargs; _ } ->
              let what () = Printf.sprintf "l%d call" i.lbl in
              let targets = Callgraph.site_callees cg i.lbl in
              List.iter
                (fun gname ->
                  match P.find_func p gname with
                  | Some callee -> (
                    try
                      List.iter2
                        (fun prm arg ->
                          match
                            (node ~func what (G.Top prm),
                             op_node ~func what fn arg)
                          with
                          | Some s, Some d ->
                            expect_edge ~func ~what s d (G.call i.lbl)
                          | _ -> ())
                        callee.params cargs
                    with Invalid_argument _ -> ())
                  | None -> ())
                targets;
              (match cdst with
              | Some x ->
                let id = def_top x in
                List.iter
                  (fun gname ->
                    List.iter
                      (fun (_, ro) ->
                        match (id, ro) with
                        | Some id, Some ro -> (
                          match op_node ~func what gname ro with
                          | Some d -> expect_edge ~func ~what id d (G.ret i.lbl)
                          | None -> ())
                        | Some id, None ->
                          expect_edge ~func ~what id froot (G.ret i.lbl)
                        | None, _ -> ())
                      (Option.value ~default:[]
                         (Hashtbl.find_opt bld.B.ret_operands gname)))
                  targets
              | None -> ());
              if config.B.track_memory then begin
                let cur_ver l =
                  match List.assoc_opt l (Memssa.mu_at mssa i.lbl) with
                  | Some v -> Some v
                  | None ->
                    List.find_map
                      (fun (l', _, ov) -> if l' = l then Some ov else None)
                      (Memssa.chi_at mssa i.lbl)
                in
                List.iter
                  (fun gname ->
                    match Memssa.func_ssa mssa gname with
                    | exception Not_found ->
                      Report.violation ~func r
                        "l%d: callee %s has no Memory SSA" i.lbl gname
                    | gfs ->
                      List.iter
                        (fun l ->
                          match cur_ver l with
                          | Some v -> (
                            match
                              (node ~func what (G.Mem (gname, l, 1)),
                               mem_node what l v)
                            with
                            | Some s, Some d ->
                              expect_edge ~func ~what s d (G.call i.lbl)
                            | _ -> ())
                          | None -> ())
                        gfs.Memssa.entry_locs)
                  targets;
                List.iter
                  (fun (l, nv, ov) ->
                    match mem_node what l nv with
                    | Some id ->
                      expect_def id (G.Dchi (fn, i.lbl));
                      let all_mod = ref (targets <> []) in
                      List.iter
                        (fun gname ->
                          match Memssa.func_ssa mssa gname with
                          | exception Not_found -> all_mod := false
                          | gfs ->
                            if List.mem l gfs.Memssa.out_locs then
                              List.iter
                                (fun (rl, _) ->
                                  match
                                    List.assoc_opt l
                                      (Memssa.ret_vers_at mssa rl)
                                  with
                                  | Some ev -> (
                                    match
                                      node ~func what (G.Mem (gname, l, ev))
                                    with
                                    | Some d ->
                                      expect_edge ~func ~what id d
                                        (G.ret i.lbl)
                                    | None -> ())
                                  | None -> all_mod := false)
                                (Option.value ~default:[]
                                   (Hashtbl.find_opt bld.B.ret_operands gname))
                            else all_mod := false)
                        targets;
                      if not !all_mod then begin
                        match mem_node what l ov with
                        | Some old -> expect_edge ~func ~what id old G.intra
                        | None -> ()
                      end
                    | None -> ())
                  (Memssa.chi_at mssa i.lbl)
              end
            | Output _ -> ())
          f;
        Array.iter
          (fun b ->
            match b.term.tkind with
            | Br (o, _, _) -> expect_critical ~func b.term.tlbl o
            | Jmp _ | Ret _ -> ())
          f.blocks
    in
    P.iter_funcs (fun f -> if not (skip f.fname) then process_func f) p;
    (* -------- Definition-site sweep. -------- *)
    Array.iteri
      (fun id d ->
        if d <> G.Droot then begin
          Report.fact r;
          if G.def_of g id <> d then
            Report.violation r "node %s has the wrong definition site"
              (nstr (G.node_of g id))
        end)
      exp_def;
    G.iter_nodes
      (fun id n ->
        if id <> troot && id <> froot && G.def_of g id = G.Droot then begin
          let own = owner n in
          if not (skip own) then begin
            Report.fact r;
            Report.violation ~func:own r "node %s has no definition site"
              (nstr n)
          end
        end)
      g;
    (* -------- Unmatched edges (sound direction: warn only). -------- *)
    (* A call or return edge belongs to its call site's function too,
       whose rules a skip leaves unreplayed. *)
    let site_owner =
      lazy
        (let own = Array.make (P.nlabels p) "" in
         P.iter_instrs (fun f _ i -> own.(i.lbl) <- f.fname) p;
         own)
    in
    let extra = ref 0 in
    let example = ref None in
    Array.iteri
      (fun i key ->
        if key >= 0 && Bytes.get have.matched i = '\000' then begin
          let s = key / have.nnodes and d = key mod have.nnodes in
          let kc = have.kinds.(i) in
          let sn = G.node_of g s and dn = G.node_of g d in
          if
            not
              (skip (owner sn) || skip (owner dn)
              || ((not (G.is_intra kc)) && skip (Lazy.force site_owner).(G.label kc)))
          then begin
            incr extra;
            if !example = None then
              example :=
                Some
                  (Printf.sprintf "%s -[%s]-> %s" (nstr sn) (kc_name kc)
                     (nstr dn))
          end
        end)
      have.keys;
    if !extra > 0 then
      Report.warning r
        "%d edge(s) matched no construction rule (e.g. %s) — sound \
         over-approximation, but unexpected"
        !extra
        (Option.value ~default:"?" !example);
    Report.finish r ~wall_s:(Obs.Clock.now_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Γ as a fixpoint of realizable F-reachability                        *)
(* ------------------------------------------------------------------ *)

type ctx = Cany | Cat of label

let check_gamma ?budget ?(context_sensitive = true) ?(name = "gamma")
    (bld : B.t) (gm : R.gamma) : Report.t =
  let t0 = Obs.Clock.now_s () in
  let r = Report.create name in
  let g = bld.B.graph in
  let p = bld.B.prog in
  let objects = bld.B.pa.Analysis.Andersen.objects in
  let n = G.nnodes g in
  let tick () =
    match budget with Some b -> Diag.Budget.tick b Diag.Verify | None -> ()
  in
  let nstr id = G.node_to_string p objects (G.node_of g id) in
  if Bytes.length gm.R.undef <> n then begin
    Report.violation r "Γ covers %d nodes but the graph has %d"
      (Bytes.length gm.R.undef) n;
    Report.finish r ~wall_s:(Obs.Clock.now_s () -. t0)
  end
  else begin
    (* Independent node-level backwards search from F with 1-callsite
       call-string matching; [parent] records the forward edge used at each
       node's first visit, giving a concrete path witness to F. *)
    let reached = Bytes.make n '\000' in
    let parent : (int * G.kind) option array = Array.make n None in
    (match G.find g G.Root_f with
    | None -> () (* no F root: nothing is reachable *)
    | Some froot ->
      let any_seen = Bytes.make n '\000' in
      let at_seen : (int * label, unit) Hashtbl.t = Hashtbl.create 1024 in
      let work = Queue.create () in
      let push v ctx ~from =
        let mark () =
          if Bytes.get reached v = '\000' then begin
            Bytes.set reached v '\001';
            parent.(v) <- from
          end
        in
        match ctx with
        | Cany ->
          if Bytes.get any_seen v = '\000' then begin
            Bytes.set any_seen v '\001';
            mark ();
            Queue.push (v, Cany) work
          end
        | Cat l ->
          if
            Bytes.get any_seen v = '\000'
            && not (Hashtbl.mem at_seen (v, l))
          then begin
            Hashtbl.replace at_seen (v, l) ();
            mark ();
            Queue.push (v, ctx) work
          end
      in
      push froot Cany ~from:None;
      while not (Queue.is_empty work) do
        let v, ctx = Queue.pop work in
        tick ();
        G.iter_preds g v (fun u kind ->
            let from = Some (v, kind) in
            if not context_sensitive || G.is_intra kind then push u ctx ~from
            else if G.is_call kind then push u (Cat (G.label kind)) ~from
            else
              match ctx with
              | Cany -> push u Cany ~from
              | Cat l' -> if G.label kind = l' then push u Cany ~from)
      done);
    (* Path witness: follow parents to F, re-validating each edge. *)
    let witness id =
      let buf = Buffer.create 64 in
      let rec walk v steps =
        Buffer.add_string buf (nstr v);
        match parent.(v) with
        | None -> ()
        | Some (w, kind) ->
          let found = ref false in
          G.iter_succs g v (fun d k -> if d = w && k = kind then found := true);
          if not !found then Buffer.add_string buf " -[MISSING EDGE]-> "
          else Buffer.add_string buf (Printf.sprintf " -[%s]-> " (kc_name kind));
          if steps >= 12 then Buffer.add_string buf "..."
          else walk w (steps + 1)
      in
      walk id 0;
      Buffer.contents buf
    in
    for id = 0 to n - 1 do
      Report.fact r;
      let rch = Bytes.get reached id <> '\000' in
      let claimed = R.is_undef gm id in
      if rch && not claimed then
        Report.violation r
          "UNSOUND: Γ(%s) = defined, but F is reachable: %s" (nstr id)
          (witness id)
      else if claimed && not rch then
        Report.violation r
          "Γ(%s) = possibly-undefined, but no realizable path to F exists — \
           not the least fixpoint"
          (nstr id)
    done;
    Report.finish r ~wall_s:(Obs.Clock.now_s () -. t0)
  end
