(* VFG construction (§3.2) with the three update flavours at stores:

   - strong     — the pointer targets a single *concrete* location (a scalar
                  global, or a scalar stack slot of a non-recursive
                  function): the old version is killed;
   - semi-strong — the paper's novel rule (Fig. 6): the pointer provably
                  derives from one allocation site that dominates the store,
                  and the location is a scalar, so the flow bypasses
                  intermediate versions back to the allocation's version;
   - weak       — everything else: the old version flows on.

   With [track_memory = false] the builder produces the Usher_TL graph:
   loads conservatively depend on the F root and memory nodes do not exist. *)

open Ir.Types
module P = Ir.Prog
module Objects = Analysis.Objects
module Bitset = Analysis.Bitset

type update_kind = Strong | Semi_strong | Weak

type config = {
  track_memory : bool;     (* false = Usher_TL *)
  semi_strong : bool;      (* ablation knob *)
}

let default_config = { track_memory = true; semi_strong = true }

(** A critical operation: the statement label, the operand whose definedness
    is checked (Definition 1), and the enclosing function. *)
type critical = { clbl : label; cop : operand; cfunc : fname }

type t = {
  graph : Graph.t;
  prog : P.t;
  pa : Analysis.Andersen.t;
  cg : Analysis.Callgraph.t;
  mr : Analysis.Modref.t;
  mssa : Memssa.t;
  config : config;
  criticals : critical list;
  store_kind : (label, update_kind) Hashtbl.t;
  semi_strong_cuts : int;
  ret_operands : (fname, (label * operand option) list) Hashtbl.t;
      (* per function: every return statement and its operand *)
}

let t_id g = Graph.intern g Graph.Root_t
let f_id g = Graph.intern g Graph.Root_f

let operand_node (g : Graph.t) (fname : fname) (o : operand) : int =
  ignore fname;
  match o with
  | Cst _ -> t_id g
  | Undef -> f_id g
  | Var v -> Graph.intern g (Graph.Top v)

(* Does the pointer [x]'s value derive exclusively from the allocation
   destination [z], through copies, phis and address computations on the
   same object? (The paper's "ẑ dominates x̂ in the VFG".) *)
let derives_only_from_alloc (defs : (var, instr_kind) Hashtbl.t) (x : var)
    (z : var) : bool =
  let visited = Hashtbl.create 8 in
  let rec go v =
    v = z
    || (not (Hashtbl.mem visited v))
       && begin
         Hashtbl.replace visited v ();
         match Hashtbl.find_opt defs v with
         | Some (Copy (_, Var y)) -> go y
         | Some (Phi (_, arms)) ->
           arms <> []
           && List.for_all
                (fun (_, o) -> match o with Var y -> go y | Cst _ | Undef -> false)
                arms
         | Some (Field_addr (_, y, _)) | Some (Index_addr (_, y, _)) -> go y
         | _ -> false
       end
  in
  (* [visited] marks in-progress nodes too: a cycle of phis that never
     reaches [z] fails via the List.for_all on some other arm or denies the
     cyclic arm, which is conservative (cycle => false for that arm). *)
  go x

(** [hook] runs before each function (fault injection from the driver);
    [budget] adds a deadline tick per function;
    [on_fault] — when given — catches any exception raised while processing
    one function and reports it, leaving that function's value-flow fragment
    partial. A partial fragment is only sound if the caller then distrusts
    the function (see [force_distrusted]). *)
let build ?(config = default_config) ?budget ?hook ?on_fault (p : P.t)
    (pa : Analysis.Andersen.t) (cg : Analysis.Callgraph.t)
    (mr : Analysis.Modref.t) (mssa : Memssa.t) : t =
  let g = Graph.create () in
  let troot = t_id g and froot = f_id g in
  let objects = pa.objects in
  let criticals = ref [] in
  let store_kind = Hashtbl.create 64 in
  let semi_cuts = ref 0 in
  let ret_operands : (fname, (label * operand option) list) Hashtbl.t =
    Hashtbl.create 16
  in
  P.iter_funcs
    (fun f ->
      let rets = ref [] in
      Array.iter
        (fun b ->
          match b.term.tkind with
          | Ret o -> rets := (b.term.tlbl, o) :: !rets
          | Br _ | Jmp _ -> ())
        f.blocks;
      Hashtbl.replace ret_operands f.fname !rets)
    p;
  let mem fname l ver = Graph.intern g (Graph.Mem (fname, l, ver)) in
  (* Per-function processing. *)
  let process_func =
    (fun f ->
      let fn = f.fname in
      let fs = Memssa.func_ssa mssa fn in
      let dom = lazy (Analysis.Dominance.compute f) in
      let pos = lazy (Analysis.Dominance.label_positions f) in
      (* Top-level def table, for semi-strong derivation checks. *)
      let defs : (var, instr_kind) Hashtbl.t = Hashtbl.create 64 in
      Ir.Func.iter_instrs
        (fun _ i ->
          match Ir.Instr.def_of i.kind with
          | Some d -> Hashtbl.replace defs d i.kind
          | None -> ())
        f;
      (* Formal parameters: nodes fed by call edges (added at call sites). *)
      List.iter
        (fun prm ->
          let id = Graph.intern g (Graph.Top prm) in
          Graph.set_def g id (Graph.Dparam fn))
        f.params;
      (* Entry versions of memory locations. *)
      if config.track_memory then begin
        let is_entry = Hashtbl.create 16 in
        List.iter (fun l -> Hashtbl.replace is_entry l ()) fs.entry_locs;
        List.iter
          (fun l ->
            let id = mem fn l 1 in
            Graph.set_def g id (Graph.Dentry fn);
            if fn = "main" then
              (* Program start: globals are default-initialized; instances of
                 anything else cannot exist yet, so version 1 is vacuously
                 defined. *)
              Graph.add_edge g ~src:id ~dst:troot Eintra
            else if not (Hashtbl.mem is_entry l) then
              (* Pseudo-entry of the function's own stack objects: no
                 instance exists before the alloc executes. *)
              Graph.add_edge g ~src:id ~dst:troot Eintra)
          fs.Memssa.tracked;
        (* Memory phis. *)
        Array.iter
          (fun b ->
            List.iter
              (fun (phi : Memssa.memphi) ->
                let id = mem fn phi.mloc phi.mver in
                Graph.set_def g id (Graph.Dmemphi (fn, b.bid));
                List.iter
                  (fun (_, argver) ->
                    Graph.add_edge g ~src:id ~dst:(mem fn phi.mloc argver) Eintra)
                  phi.margs)
              (Memssa.phis_at fs b.bid))
          f.blocks
      end;
      (* Instructions. *)
      Ir.Func.iter_instrs
        (fun _ i ->
          let def_top x =
            let id = Graph.intern g (Graph.Top x) in
            Graph.set_def g id (Graph.Dinstr (fn, i.lbl));
            id
          in
          let dep id o = Graph.add_edge g ~src:id ~dst:(operand_node g fn o) Eintra in
          match i.kind with
          | Const (x, _) -> dep (def_top x) (Cst 0)
          | Copy (x, o) -> dep (def_top x) o
          | Unop (x, _, o) -> dep (def_top x) o
          | Binop (x, _, o1, o2) ->
            let id = def_top x in
            dep id o1;
            dep id o2
          | Phi (x, arms) ->
            let id = def_top x in
            List.iter (fun (_, o) -> dep id o) arms
          | Global_addr (x, _) | Func_addr (x, _) | Input x ->
            dep (def_top x) (Cst 0)
          | Field_addr (x, y, _) -> dep (def_top x) (Var y)
          | Index_addr (x, y, o) ->
            let id = def_top x in
            dep id (Var y);
            dep id o
          | Alloc a ->
            (* x̂ -> T; per location: rho_new -> (T|F) and rho_new -> rho_old. *)
            dep (def_top a.adst) (Cst 0);
            if config.track_memory then
              List.iter
                (fun (l, nv, ov) ->
                  let id = mem fn l nv in
                  Graph.set_def g id (Graph.Dchi (fn, i.lbl));
                  Graph.add_edge g ~src:id
                    ~dst:(if a.initialized then troot else froot)
                    Eintra;
                  Graph.add_edge g ~src:id ~dst:(mem fn l ov) Eintra)
                (Memssa.chi_at fs i.lbl)
          | Load (x, y) ->
            criticals := { clbl = i.lbl; cop = Var y; cfunc = fn } :: !criticals;
            let id = def_top x in
            if config.track_memory then
              List.iter
                (fun (l, ver) -> Graph.add_edge g ~src:id ~dst:(mem fn l ver) Eintra)
                (Memssa.mu_at fs i.lbl)
            else Graph.add_edge g ~src:id ~dst:froot Eintra
          | Store (x, o) ->
            criticals := { clbl = i.lbl; cop = Var x; cfunc = fn } :: !criticals;
            if config.track_memory then begin
              let chis = Memssa.chi_at fs i.lbl in
              (* Update-kind classification. *)
              let kind =
                match chis with
                | [ (l, _, _) ] -> (
                  let o = Objects.loc_obj objects l in
                  let concrete =
                    (not o.oarray)
                    && (match o.okind with
                       | Objects.Obj_global -> true
                       | Objects.Obj_stack ->
                         not (Analysis.Callgraph.is_recursive cg o.oowner)
                       | Objects.Obj_heap | Objects.Obj_func _ -> false)
                  in
                  if concrete then Strong
                  else if not config.semi_strong then Weak
                  else
                    (* Semi-strong: scalar location, allocation site in this
                       function dominating the store, pointer derived from
                       that allocation. *)
                    match
                      (if o.oarray || o.osite < 0 then None
                       else
                         match Ir.Func.find_instr f o.osite with
                         | Some (_, ai) -> (
                           match ai.kind with
                           | Alloc a
                             when Analysis.Dominance.label_dominates
                                    (Lazy.force dom) (Lazy.force pos) o.osite
                                    i.lbl
                                  && derives_only_from_alloc defs x a.adst ->
                             Some a.adst
                           | _ -> None)
                         | None -> None)
                    with
                    | Some _ -> Semi_strong
                    | None -> Weak)
                | _ -> Weak
              in
              Hashtbl.replace store_kind i.lbl kind;
              List.iter
                (fun (l, nv, ov) ->
                  let id = mem fn l nv in
                  Graph.set_def g id (Graph.Dchi (fn, i.lbl));
                  Graph.add_edge g ~src:id ~dst:(operand_node g fn o) Eintra;
                  match kind with
                  | Strong -> ()
                  | Semi_strong ->
                    incr semi_cuts;
                    (* Bypass to rho_j, the version *before* the allocation's
                       chi (Fig. 6: b4 -> b2, skipping b3's F edge): the
                       current instance's uninitialized state is killed, while
                       older instances' flows survive through the pre-alloc
                       version. *)
                    let oo = Objects.loc_obj objects l in
                    let alloc_ver =
                      List.find_map
                        (fun (l', _, ov') -> if l' = l then Some ov' else None)
                        (Memssa.chi_at fs oo.osite)
                    in
                    (match alloc_ver with
                    | Some av -> Graph.add_edge g ~src:id ~dst:(mem fn l av) Eintra
                    | None -> Graph.add_edge g ~src:id ~dst:(mem fn l ov) Eintra)
                  | Weak -> Graph.add_edge g ~src:id ~dst:(mem fn l ov) Eintra)
                chis
            end
            else Hashtbl.replace store_kind i.lbl Weak
          | Call { cdst; cargs; _ } ->
            let targets = Analysis.Callgraph.site_callees cg i.lbl in
            (* Top-level parameter passing: formal -> actual. *)
            List.iter
              (fun gname ->
                match P.find_func p gname with
                | Some callee ->
                  (try
                     List.iter2
                       (fun prm arg ->
                         Graph.add_edge g
                           ~src:(Graph.intern g (Graph.Top prm))
                           ~dst:(operand_node g fn arg) (Ecall i.lbl))
                       callee.params cargs
                   with Invalid_argument _ -> ())
                | None -> ())
              targets;
            (* Return value: x -> callee return operands. *)
            (match cdst with
            | Some x ->
              let id = def_top x in
              List.iter
                (fun gname ->
                  List.iter
                    (fun (_, ro) ->
                      match ro with
                      | Some ro ->
                        Graph.add_edge g ~src:id
                          ~dst:(operand_node g gname ro) (Eret i.lbl)
                      | None ->
                        (* calling a void function for its value: undef *)
                        Graph.add_edge g ~src:id ~dst:froot (Eret i.lbl))
                    (Option.value ~default:[]
                       (Hashtbl.find_opt ret_operands gname)))
                targets
            | None -> ());
            if config.track_memory then begin
              (* Virtual input parameters: callee entry -> caller current. *)
              let cur_ver l =
                match List.assoc_opt l (Memssa.mu_at fs i.lbl) with
                | Some v -> Some v
                | None ->
                  List.find_map
                    (fun (l', _, ov) -> if l' = l then Some ov else None)
                    (Memssa.chi_at fs i.lbl)
              in
              List.iter
                (fun gname ->
                  let gfs = Memssa.func_ssa mssa gname in
                  List.iter
                    (fun l ->
                      match cur_ver l with
                      | Some v ->
                        Graph.add_edge g ~src:(mem gname l 1) ~dst:(mem fn l v)
                          (Ecall i.lbl)
                      | None -> ())
                    gfs.Memssa.entry_locs)
                targets;
              (* Virtual output parameters: caller new -> callee exits. *)
              List.iter
                (fun (l, nv, ov) ->
                  let id = mem fn l nv in
                  Graph.set_def g id (Graph.Dchi (fn, i.lbl));
                  let all_mod = ref (targets <> []) in
                  List.iter
                    (fun gname ->
                      let gfs = Memssa.func_ssa mssa gname in
                      if List.mem l gfs.Memssa.out_locs then
                        List.iter
                          (fun (rl, _) ->
                            match List.assoc_opt l (Memssa.ret_vers_at gfs rl) with
                            | Some ev ->
                              Graph.add_edge g ~src:id ~dst:(mem gname l ev)
                                (Eret i.lbl)
                            | None -> all_mod := false)
                          (Option.value ~default:[]
                             (Hashtbl.find_opt ret_operands gname))
                      else all_mod := false)
                    targets;
                  (* If some callee may leave the location untouched, the old
                     version flows through. *)
                  if not !all_mod then
                    Graph.add_edge g ~src:id ~dst:(mem fn l ov) Eintra)
                (Memssa.chi_at fs i.lbl)
            end
          | Output _ -> ())
        f;
      (* Branch conditions are critical operations. *)
      Array.iter
        (fun b ->
          match b.term.tkind with
          | Br (o, _, _) ->
            criticals := { clbl = b.term.tlbl; cop = o; cfunc = fn } :: !criticals
          | Jmp _ | Ret _ -> ())
        f.blocks)
  in
  P.iter_funcs
    (fun f ->
      let pre () =
        (match hook with Some h -> h f.fname | None -> ());
        match budget with
        | Some b -> Diag.Budget.tick b Diag.Vfg_build
        | None -> ()
      in
      let compute () =
        match on_fault with
        | None ->
          pre ();
          process_func f
        | Some report -> (
          try
            pre ();
            process_func f
          with e -> report f.fname e)
      in
      (* One span per function when tracing; exactly [compute ()] otherwise. *)
      if Obs.Trace.enabled () then
        Obs.Trace.with_span ~cat:"vfg" ("vfg." ^ f.fname) compute
      else compute ())
    p;
  {
    graph = g;
    prog = p;
    pa;
    cg;
    mr;
    mssa;
    config;
    criticals = List.rev !criticals;
    store_kind;
    semi_strong_cuts = !semi_cuts;
    ret_operands;
  }

(** Soundness forcing for per-function degradation. When a function's
    Memory SSA or value-flow fragment is partial (its phase faulted or ran
    out of budget), the guided plan can no longer reason about anything it
    produces. Pin to the F root:

    - every node defined inside a distrusted function (its fragment may be
      arbitrarily incomplete);
    - the formal parameters and entry memory states of everything it calls
      (its own argument/virtual-parameter edges may be missing, and it may
      pass garbage);
    - the call results and call-site memory versions a *trusted* caller
      receives from a distrusted callee.

    Every crossing edge from trusted code into a distrusted fragment is
    added by the trusted side's processing, so after forcing, any value flow
    that could have traversed the missing fragment reaches F through its
    first distrusted node. Adding edges only ever grows the ⊥ set, so the
    re-resolved Γ stays sound and degradation monotonically adds checks. *)
let force_distrusted (t : t) (distrusted : (fname, 'a) Hashtbl.t) : unit =
  if Hashtbl.length distrusted > 0 then begin
    let g = t.graph in
    let froot = f_id g in
    let force id = Graph.add_edge g ~src:id ~dst:froot Eintra in
    let force_node n = match Graph.find g n with Some id -> force id | None -> () in
    let in_d fn = Hashtbl.mem distrusted fn in
    Graph.iter_nodes
      (fun id _ ->
        match Graph.def_of g id with
        | Graph.Dinstr (fn, _)
        | Graph.Dparam fn
        | Graph.Dchi (fn, _)
        | Graph.Dmemphi (fn, _)
        | Graph.Dentry fn ->
          if in_d fn then force id
        | Graph.Droot -> ())
      g;
    P.iter_instrs
      (fun f _ i ->
        match i.kind with
        | Call { cdst; _ } ->
          let targets = Analysis.Callgraph.site_callees t.cg i.lbl in
          if in_d f.fname then
            (* Interfaces the distrusted caller feeds. *)
            List.iter
              (fun gname ->
                (match P.find_func t.prog gname with
                | Some callee ->
                  List.iter (fun prm -> force_node (Graph.Top prm)) callee.params
                | None -> ());
                if t.config.track_memory then
                  let gfs = Memssa.func_ssa t.mssa gname in
                  List.iter
                    (fun l -> force_node (Graph.Mem (gname, l, 1)))
                    gfs.Memssa.entry_locs)
              targets
          else if List.exists in_d targets then begin
            (* Trusted caller receiving from a distrusted callee. *)
            (match cdst with
            | Some x -> force_node (Graph.Top x)
            | None -> ());
            if t.config.track_memory then
              let fs = Memssa.func_ssa t.mssa f.fname in
              List.iter
                (fun (l, nv, _) -> force_node (Graph.Mem (f.fname, l, nv)))
                (Memssa.chi_at fs i.lbl)
          end
        | _ -> ())
      t.prog
  end

(* Statistics for Table 1. *)

type store_stats = {
  total_stores : int;
  strong : int;
  semi : int;
  weak_singleton : int;  (* singleton points-to, weak update *)
  weak_other : int;
}

let store_stats (t : t) : store_stats =
  let total = ref 0 and strong = ref 0 and semi = ref 0 in
  let weak_singleton = ref 0 and weak_other = ref 0 in
  P.iter_instrs
    (fun _ _ i ->
      match i.kind with
      | Store (x, _) -> (
        incr total;
        let singleton = Analysis.Andersen.singleton_pt t.pa x <> None in
        match Hashtbl.find_opt t.store_kind i.lbl with
        | Some Strong -> incr strong
        | Some Semi_strong -> incr semi; incr weak_singleton
        | Some Weak | None ->
          if singleton then incr weak_singleton else incr weak_other)
      | _ -> ())
    t.prog;
  {
    total_stores = !total;
    strong = !strong;
    semi = !semi;
    weak_singleton = !weak_singleton;
    weak_other = !weak_other;
  }
