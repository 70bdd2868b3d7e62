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
   loads conservatively depend on the F root and memory nodes do not exist.

   One pass per function, with every lookup an array read. The program
   index ([Analysis.Index]) is Memory SSA's: it numbers the functions in
   [Ir.Prog.iter_funcs] order (the graph's function indices, and Memory
   SSA's) and answers the semi-strong check's questions (a var's defining
   instruction, dominance between two statements). Return statements sit
   in an array by function number; a call's targets are turned into
   numbers once per site. *)

open Ir.Types
module P = Ir.Prog
module G = Graph
module Objects = Analysis.Objects
module Index = Analysis.Index

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

(* The builder's state for one program. *)
type ctx = {
  g : G.t;
  cg : Analysis.Callgraph.t;
  objects : Objects.t;
  config : config;
  troot : int;
  froot : int;
  ix : Index.t;
  mssa : Memssa.t;
  rets : (label * operand option) list array;
  mutable tgt : int array;      (* the current call's targets' indices *)
  mutable ntgt : int;
  mutable entry : int array;    (* loc -> index of the function whose
                                   entry_locs hold it *)
  mutable visit : int array;    (* var -> stamp of the last derivation
                                   walk; allocated by the first one *)
  mutable stamp : int;
  mutable criticals : critical list;
  store_kind : (label, update_kind) Hashtbl.t;
  mutable semi_cuts : int;
}

(* The destination of the allocation at label [site], if the walk from
   [x] reaches it, or -1: does the pointer [x]'s value derive exclusively
   from that destination, through copies, phis and address computations on
   the same object? (The paper's "ẑ dominates x̂ in the VFG".) The walk
   stays in [x]'s function, so an allocation elsewhere is never reached. A
   variable already visited by this walk fails, so a cycle of phis that
   never reaches the allocation denies the cyclic arm, which is
   conservative. *)
let rec derives (c : ctx) site v =
  let l = Index.def_label c.ix v in
  if l < 0 then -1
  else
    match Index.kind c.ix l with
    | Alloc _ when l = site -> v
    | k ->
      if c.visit.(v) = c.stamp then -1
      else begin
        c.visit.(v) <- c.stamp;
        match k with
        | Copy (_, Var y) | Field_addr (_, y, _) | Index_addr (_, y, _) -> derives c site y
        | Phi (_, (_ :: _ as arms)) -> derives_arms c site (-1) arms
        | _ -> -1
      end

(* Every arm derives from the allocation: its destination, or -1. *)
and derives_arms (c : ctx) site z = function
  | [] -> z
  | (_, Var y) :: rest ->
    let z = derives c site y in
    if z < 0 then -1 else derives_arms c site z rest
  | (_, (Cst _ | Undef)) :: _ -> -1

let concrete cg (o : Objects.obj) =
  (not o.oarray)
  && (match o.okind with
     | Objects.Obj_global -> true
     | Objects.Obj_stack -> not (Analysis.Callgraph.is_recursive cg o.oowner)
     | Objects.Obj_heap | Objects.Obj_func _ -> false)

(* The update kind of the store at [lbl] through [x] whose chi list is
   [chis]. Semi-strong: scalar location, allocation site in this function
   dominating the store, pointer derived from that allocation. *)
let store_update (c : ctx) lbl x chis =
  match chis with
  | [ (l, _, _) ] ->
    let o = Objects.loc_obj c.objects l in
    if concrete c.cg o then Strong
    else if (not c.config.semi_strong) || o.oarray || o.osite < 0 then Weak
    else begin
      if Array.length c.visit = 0 then c.visit <- Array.make (Index.nvars c.ix) 0;
      c.stamp <- c.stamp + 1;
      let z = derives c o.osite x in
      if z >= 0 && Index.dominates c.ix (Index.def_label c.ix z) lbl then Semi_strong
      else Weak
    end
  | _ -> Weak

let operand_node (c : ctx) = function
  | Cst _ -> c.troot
  | Undef -> c.froot
  | Var v -> G.top c.g v

let def_top (c : ctx) fi lbl x =
  let id = G.top c.g x in
  G.set_def c.g id G.Kinstr ~func:fi ~at:lbl;
  id

let dep (c : ctx) id o = G.add_edge c.g ~src:id ~dst:(operand_node c o) G.intra

let rec phi_arms (c : ctx) id = function
  | [] -> ()
  | (_, o) :: rest ->
    dep c id o;
    phi_arms c id rest

let chi_def (c : ctx) fi lbl l nv =
  let id = G.mem c.g fi l nv in
  G.set_def c.g id G.Kchi ~func:fi ~at:lbl;
  id

let rec chi_old l = function
  | [] -> -1
  | (l', _, ov) :: rest -> if l' = l then ov else chi_old l rest

let rec alloc_chis (c : ctx) fi lbl init = function
  | [] -> ()
  | (l, nv, ov) :: rest ->
    let id = chi_def c fi lbl l nv in
    G.add_edge c.g ~src:id ~dst:(if init then c.troot else c.froot) G.intra;
    G.add_edge c.g ~src:id ~dst:(G.mem c.g fi l ov) G.intra;
    alloc_chis c fi lbl init rest

let rec load_mus (c : ctx) fi id = function
  | [] -> ()
  | (l, ver) :: rest ->
    G.add_edge c.g ~src:id ~dst:(G.mem c.g fi l ver) G.intra;
    load_mus c fi id rest

let rec store_chis (c : ctx) fi lbl o kind = function
  | [] -> ()
  | (l, nv, ov) :: rest ->
    let id = chi_def c fi lbl l nv in
    G.add_edge c.g ~src:id ~dst:(operand_node c o) G.intra;
    (match kind with
    | Strong -> ()
    | Semi_strong ->
      c.semi_cuts <- c.semi_cuts + 1;
      (* Bypass to rho_j, the version *before* the allocation's chi
         (Fig. 6: b4 -> b2, skipping b3's F edge): the current instance's
         uninitialized state is killed, while older instances' flows
         survive through the pre-alloc version. *)
      let osite = (Objects.loc_obj c.objects l).osite in
      let av = chi_old l (Memssa.chi_at c.mssa osite) in
      G.add_edge c.g ~src:id ~dst:(G.mem c.g fi l (if av >= 0 then av else ov)) G.intra
    | Weak -> G.add_edge c.g ~src:id ~dst:(G.mem c.g fi l ov) G.intra);
    store_chis c fi lbl o kind rest

(* [c.tgt.(0 .. ntgt-1)]: the indices of a call's targets, -1 for a
   name the program does not define. *)
let rec set_targets (c : ctx) k = function
  | [] -> c.ntgt <- k
  | name :: rest ->
    if k = Array.length c.tgt then c.tgt <- Array.append c.tgt c.tgt;
    c.tgt.(k) <- Index.func_number c.ix name;
    set_targets c (k + 1) rest

(* Top-level parameter passing: formal -> actual, over the common prefix
   of the formals and the actuals. *)
let rec pass_args (c : ctx) k prms args =
  match (prms, args) with
  | prm :: prms, arg :: args ->
    let dst = operand_node c arg in
    G.add_edge c.g ~src:(G.top c.g prm) ~dst k;
    pass_args c k prms args
  | _ -> ()

let rec ret_edges (c : ctx) id k = function
  | [] -> ()
  | (_, Some ro) :: rest ->
    G.add_edge c.g ~src:id ~dst:(operand_node c ro) k;
    ret_edges c id k rest
  | (_, None) :: rest ->
    (* calling a void function for its value: undef *)
    G.add_edge c.g ~src:id ~dst:c.froot k;
    ret_edges c id k rest

(* The current version of [l] at a call: its mu, or its chi's old one. *)
let cur_ver l mus chis =
  match List.assoc_opt l mus with Some v -> v | None -> chi_old l chis

(* Virtual input parameters: callee entry -> caller current. *)
let rec entry_edges (c : ctx) fi gi k mus chis = function
  | [] -> ()
  | l :: rest ->
    let v = cur_ver l mus chis in
    if v >= 0 then begin
      let dst = G.mem c.g fi l v in
      G.add_edge c.g ~src:(G.mem c.g gi l 1) ~dst k
    end;
    entry_edges c fi gi k mus chis rest

(* Virtual output parameter [l] of callee [gi] at the call's chi [id]:
   an edge to each return's version of [l]; false if some return, or the
   callee, may leave [l] untouched. *)
let rec exit_edges (c : ctx) gi id l k all = function
  | [] -> all
  | (rl, _) :: rest -> (
    match List.assoc_opt l (Memssa.ret_vers_at c.mssa rl) with
    | Some ev ->
      G.add_edge c.g ~src:id ~dst:(G.mem c.g gi l ev) k;
      exit_edges c gi id l k all rest
    | None -> exit_edges c gi id l k false rest)

(* Virtual output parameters: caller new -> callee exits. If some callee
   may leave the location untouched, the old version flows through. *)
let rec call_chis (c : ctx) fi lbl k = function
  | [] -> ()
  | (l, nv, ov) :: rest ->
    let id = chi_def c fi lbl l nv in
    let all_mod = ref (c.ntgt > 0) in
    for t = 0 to c.ntgt - 1 do
      let gi = c.tgt.(t) in
      if List.mem l (Memssa.func c.mssa gi).out_locs then begin
        if not (exit_edges c gi id l k true c.rets.(gi)) then all_mod := false
      end
      else all_mod := false
    done;
    if not !all_mod then G.add_edge c.g ~src:id ~dst:(G.mem c.g fi l ov) G.intra;
    call_chis c fi lbl k rest

let critical (c : ctx) fn lbl o =
  c.criticals <- { clbl = lbl; cop = o; cfunc = fn } :: c.criticals

let instr (c : ctx) fi (f : func) (i : instr) =
  let g = c.g and lbl = i.lbl in
  match i.kind with
  | Const (x, _) | Global_addr (x, _) | Func_addr (x, _) | Input x ->
    G.add_edge g ~src:(def_top c fi lbl x) ~dst:c.troot G.intra
  | Copy (x, o) | Unop (x, _, o) -> dep c (def_top c fi lbl x) o
  | Binop (x, _, o1, o2) ->
    let id = def_top c fi lbl x in
    dep c id o1;
    dep c id o2
  | Phi (x, arms) -> phi_arms c (def_top c fi lbl x) arms
  | Field_addr (x, y, _) -> dep c (def_top c fi lbl x) (Var y)
  | Index_addr (x, y, o) ->
    let id = def_top c fi lbl x in
    dep c id (Var y);
    dep c id o
  | Alloc a ->
    (* x̂ -> T; per location: rho_new -> (T|F) and rho_new -> rho_old. *)
    G.add_edge g ~src:(def_top c fi lbl a.adst) ~dst:c.troot G.intra;
    if c.config.track_memory then
      alloc_chis c fi lbl a.initialized (Memssa.chi_at c.mssa lbl)
  | Load (x, y) ->
    critical c f.fname lbl (Var y);
    let id = def_top c fi lbl x in
    if c.config.track_memory then load_mus c fi id (Memssa.mu_at c.mssa lbl)
    else G.add_edge g ~src:id ~dst:c.froot G.intra
  | Store (x, o) ->
    critical c f.fname lbl (Var x);
    if c.config.track_memory then begin
      let chis = Memssa.chi_at c.mssa lbl in
      let kind = store_update c lbl x chis in
      Hashtbl.replace c.store_kind lbl kind;
      store_chis c fi lbl o kind chis
    end
    else Hashtbl.replace c.store_kind lbl Weak
  | Call { cdst; cargs; _ } ->
    set_targets c 0 (Analysis.Callgraph.site_callees c.cg lbl);
    for t = 0 to c.ntgt - 1 do
      let gi = c.tgt.(t) in
      if gi >= 0 then pass_args c (G.call lbl) (Index.func c.ix gi).params cargs
    done;
    (* Return value: x -> callee return operands. *)
    (match cdst with
    | Some x ->
      let id = def_top c fi lbl x in
      for t = 0 to c.ntgt - 1 do
        let gi = c.tgt.(t) in
        if gi >= 0 then ret_edges c id (G.ret lbl) c.rets.(gi)
      done
    | None -> ());
    if c.config.track_memory then begin
      let mus = Memssa.mu_at c.mssa lbl and chis = Memssa.chi_at c.mssa lbl in
      for t = 0 to c.ntgt - 1 do
        let gi = c.tgt.(t) in
        entry_edges c fi gi (G.call lbl) mus chis (Memssa.func c.mssa gi).entry_locs
      done;
      call_chis c fi lbl (G.ret lbl) chis
    end
  | Output _ -> ()

let process_func (c : ctx) fi (f : func) =
  let g = c.g and fs = Memssa.func c.mssa fi in
  (* Formal parameters: nodes fed by call edges (added at call sites). *)
  List.iter (fun prm -> G.set_def g (G.top g prm) G.Kparam ~func:fi ~at:0) f.params;
  if c.config.track_memory then begin
    (* Entry versions of memory locations. *)
    List.iter (fun l -> c.entry.(l) <- fi) fs.Memssa.entry_locs;
    List.iter
      (fun l ->
        let id = G.mem g fi l 1 in
        G.set_def g id G.Kentry ~func:fi ~at:0;
        (* At program start globals are default-initialized and instances
           of anything else cannot exist yet, so version 1 of main is
           vacuously defined; so is the pseudo-entry of a function's own
           stack objects, no instance of which exists before the alloc. *)
        if f.fname = "main" || c.entry.(l) <> fi then
          G.add_edge g ~src:id ~dst:c.troot G.intra)
      fs.Memssa.tracked;
    (* Memory phis. *)
    Array.iter
      (fun b ->
        List.iter
          (fun (phi : Memssa.memphi) ->
            let id = G.mem g fi phi.mloc phi.mver in
            G.set_def g id G.Kmemphi ~func:fi ~at:b.bid;
            List.iter
              (fun (_, argver) ->
                G.add_edge g ~src:id ~dst:(G.mem g fi phi.mloc argver) G.intra)
              phi.margs)
          (Memssa.phis_at fs b.bid))
      f.blocks
  end;
  Array.iter (fun b -> List.iter (instr c fi f) b.instrs) f.blocks;
  (* Branch conditions are critical operations. *)
  Array.iter
    (fun b ->
      match b.term.tkind with
      | Br (o, _, _) -> critical c f.fname b.term.tlbl o
      | Jmp _ | Ret _ -> ())
    f.blocks

(** [hook] runs before each function (fault injection from the driver);
    [budget] adds a deadline tick per function;
    [on_fault] — when given — catches any exception raised while processing
    one function and reports it, leaving that function's value-flow fragment
    partial. A partial fragment is only sound if the caller then distrusts
    the function (see [force_distrusted]). *)
let build ?(config = default_config) ?budget ?hook ?on_fault (p : P.t)
    (pa : Analysis.Andersen.t) (cg : Analysis.Callgraph.t)
    (mr : Analysis.Modref.t) (mssa : Memssa.t) : t =
  let ix = Memssa.index mssa in
  let nfuncs = Index.nfuncs ix in
  let mem_nodes = ref 0 in
  if config.track_memory then
    for fi = 0 to nfuncs - 1 do
      mem_nodes := Array.fold_left ( + ) !mem_nodes (Memssa.func mssa fi).versions
    done;
  (* About 5/8 of the variables get a [Top] node (41,438 of 70,136 on
     176.gcc, 96 of 176 on a small generated program). *)
  let nvars = P.nvars p in
  let g =
    G.create ~nodes:((5 * nvars / 8) + !mem_nodes + 2) ~vars:nvars ~labels:(P.nlabels p) ()
  in
  for fi = 0 to nfuncs - 1 do
    ignore (G.func_index g (Index.func ix fi).fname)
  done;
  let troot = G.intern g G.Root_t in
  let froot = G.intern g G.Root_f in
  let rets =
    Array.init nfuncs (fun fi ->
        Array.fold_left
          (fun acc b ->
            match b.term.tkind with
            | Ret o -> (b.term.tlbl, o) :: acc
            | Br _ | Jmp _ -> acc)
          [] (Index.func ix fi).blocks)
  in
  let c =
    {
      g;
      cg;
      objects = pa.objects;
      config;
      troot;
      froot;
      ix;
      mssa;
      rets;
      tgt = Array.make 4 0;
      ntgt = 0;
      entry = Array.make (if config.track_memory then Objects.nlocs pa.objects else 0) (-1);
      visit = [||];
      stamp = 0;
      criticals = [];
      store_kind = Hashtbl.create 64;
      semi_cuts = 0;
    }
  in
  for fi = 0 to nfuncs - 1 do
    let f = Index.func ix fi in
    let run () =
      Option.iter (fun h -> h f.fname) hook;
      Option.iter (fun b -> Diag.Budget.tick b Diag.Vfg_build) budget;
      process_func c fi f
    in
    let compute () =
      match on_fault with
      | None -> run ()
      | Some report -> ( try run () with e -> report f.fname e)
    in
    (* One span per function when tracing; exactly [compute ()] otherwise. *)
    if Obs.Trace.enabled () then
      Obs.Trace.with_span ~cat:"vfg" ~args:[ ("fn", Obs.Trace.Str f.fname) ] "vfg.func"
        compute
    else compute ()
  done;
  let ret_operands = Hashtbl.create nfuncs in
  Array.iteri (fun fi r -> Hashtbl.replace ret_operands (Index.func ix fi).fname r) rets;
  {
    graph = g;
    prog = p;
    pa;
    cg;
    mr;
    mssa;
    config;
    criticals = List.rev c.criticals;
    store_kind = c.store_kind;
    semi_strong_cuts = c.semi_cuts;
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
    let froot = G.intern g G.Root_f in
    let force id = G.add_edge g ~src:id ~dst:froot G.intra in
    let force_node n = match G.find g n with Some id -> force id | None -> () in
    let in_d fn = Hashtbl.mem distrusted fn in
    let ix = Memssa.index t.mssa in
    for id = 0 to G.nnodes g - 1 do
      match G.def_of g id with
      | G.Dinstr (fn, _) | G.Dparam fn | G.Dchi (fn, _) | G.Dmemphi (fn, _) | G.Dentry fn ->
        if in_d fn then force id
      | G.Droot -> ()
    done;
    P.iter_instrs
      (fun f _ i ->
        match i.kind with
        | Call { cdst; _ } ->
          let targets = Analysis.Callgraph.site_callees t.cg i.lbl in
          if in_d f.fname then
            (* Interfaces the distrusted caller feeds. *)
            List.iter
              (fun gname ->
                let gi = Index.func_number ix gname in
                List.iter (fun prm -> force_node (G.Top prm)) (Index.func ix gi).params;
                if t.config.track_memory then
                  List.iter
                    (fun l -> force_node (G.Mem (gname, l, 1)))
                    (Memssa.func t.mssa gi).entry_locs)
              targets
          else if List.exists in_d targets then begin
            (* Trusted caller receiving from a distrusted callee. *)
            (match cdst with
            | Some x -> force_node (G.Top x)
            | None -> ());
            if t.config.track_memory then
              List.iter
                (fun (l, nv, _) -> force_node (G.Mem (f.fname, l, nv)))
                (Memssa.chi_at t.mssa i.lbl)
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
