(* Memory SSA construction (the paper's §3.1, following Chow et al.'s mu/chi
   form).

   Address-taken variables (abstract locations) are annotated onto the IR as
   side tables rather than rewritten into it:

   - every load   [x := *y]        carries mu(rho) for each rho in pts(y);
   - every store  [*x := v]        carries rho_m := chi(rho_n) for each rho in pts(x);
   - every alloc                   carries a chi for each location of the object;
   - every call                    carries mu(REF(callee)) and chi(MOD(callee))
                                   — the virtual input and output parameters;
   - the entry    defines version 1 of every location visible on entry;
   - every ret    records the current version of each output location.

   Versions are per (function, location), assigned by the standard SSA
   renaming walk with phi placement at iterated dominance frontiers. The
   runtime never sees memory versions (shadow memory is keyed by address);
   they exist purely to give the VFG its def-use edges. *)

open Ir.Types
module P = Ir.Prog
module Objects = Analysis.Objects
module Bitset = Analysis.Bitset

type loc = int

type memphi = {
  mloc : loc;
  mutable mver : int;
  mutable margs : (blockid * int) list;
}

type func_ssa = {
  fname : fname;
  tracked : loc list;
  entry_locs : loc list;                     (* virtual input parameters *)
  out_locs : loc list;                       (* virtual output parameters *)
  mu : (label, (loc * int) list) Hashtbl.t;  (* (rho, version used) *)
  chi : (label, (loc * int * int) list) Hashtbl.t; (* (rho, new, old) *)
  phis : (blockid, memphi list) Hashtbl.t;
  ret_vers : (label, (loc * int) list) Hashtbl.t;  (* versions at each ret *)
  nversions : (loc, int) Hashtbl.t;          (* highest version per loc *)
}

type t = {
  prog : P.t;
  pa : Analysis.Andersen.t;
  cg : Analysis.Callgraph.t;
  mr : Analysis.Modref.t;
  funcs : (fname, func_ssa) Hashtbl.t;
}

let func_ssa t f = Hashtbl.find t.funcs f

let mu_at fs lbl = Option.value ~default:[] (Hashtbl.find_opt fs.mu lbl)
let chi_at fs lbl = Option.value ~default:[] (Hashtbl.find_opt fs.chi lbl)
let phis_at fs b = Option.value ~default:[] (Hashtbl.find_opt fs.phis b)
let ret_vers_at fs lbl = Option.value ~default:[] (Hashtbl.find_opt fs.ret_vers lbl)

(* ------------------------------------------------------------------ *)

let build_func (pa : Analysis.Andersen.t) (cg : Analysis.Callgraph.t)
    (mr : Analysis.Modref.t) (f : func) : func_ssa =
  let objects = pa.objects in
  let pts v = Analysis.Andersen.pts_var pa v in
  (* 1. Raw mu/chi location sets per label. *)
  let raw_mu : (label, loc list) Hashtbl.t = Hashtbl.create 64 in
  let raw_chi : (label, loc list) Hashtbl.t = Hashtbl.create 64 in
  let tracked = Bitset.create () in
  let track l = ignore (Bitset.add tracked l) in
  Ir.Func.iter_instrs
    (fun _ i ->
      match i.kind with
      | Load (_, y) ->
        let ls = Bitset.elements (pts y) in
        List.iter track ls;
        if ls <> [] then Hashtbl.replace raw_mu i.lbl ls
      | Store (x, _) ->
        let ls = Bitset.elements (pts x) in
        List.iter track ls;
        if ls <> [] then Hashtbl.replace raw_chi i.lbl ls
      | Alloc _ ->
        let ls =
          List.concat_map
            (fun oid ->
              let acc = ref [] in
              Objects.iter_obj_locs objects oid (fun l -> acc := l :: !acc);
              !acc)
            (Objects.objs_of_site objects i.lbl)
        in
        List.iter track ls;
        if ls <> [] then Hashtbl.replace raw_chi i.lbl ls
      | Call _ ->
        let mu = Bitset.elements (Analysis.Modref.call_ref mr i.lbl) in
        let ch = Bitset.elements (Analysis.Modref.call_mod mr i.lbl) in
        List.iter track mu;
        List.iter track ch;
        if mu <> [] then Hashtbl.replace raw_mu i.lbl mu;
        if ch <> [] then Hashtbl.replace raw_chi i.lbl ch
      | Const _ | Copy _ | Unop _ | Binop _ | Field_addr _ | Index_addr _
      | Global_addr _ | Func_addr _ | Phi _ | Output _ | Input _ ->
        ())
    f;
  (* Virtual parameters from the function summary. *)
  let s = Analysis.Modref.summary mr f.fname in
  let recursive = Analysis.Callgraph.is_recursive cg f.fname in
  let own_stack l =
    let o = Objects.loc_obj objects l in
    o.okind = Objects.Obj_stack && o.oowner = f.fname && not recursive
  in
  Bitset.iter track s.mref;
  Bitset.iter track s.mmod;
  let tracked_list = Bitset.elements tracked in
  let entry_locs = List.filter (fun l -> not (own_stack l)) tracked_list in
  let out_locs =
    Bitset.elements s.mmod |> List.filter (fun l -> not (own_stack l))
  in
  (* 2. Phi placement per tracked location. *)
  let dom = Analysis.Dominance.compute f in
  let def_blocks : (loc, blockid list) Hashtbl.t = Hashtbl.create 64 in
  let add_def l b =
    let prev = Option.value ~default:[] (Hashtbl.find_opt def_blocks l) in
    Hashtbl.replace def_blocks l (b :: prev)
  in
  List.iter (fun l -> add_def l 0) tracked_list; (* entry defines version 1 *)
  Ir.Func.iter_instrs
    (fun b i ->
      match Hashtbl.find_opt raw_chi i.lbl with
      | Some ls -> List.iter (fun l -> add_def l b.bid) ls
      | None -> ())
    f;
  let phis : (blockid, memphi list) Hashtbl.t = Hashtbl.create 16 in
  let nversions : (loc, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace nversions l 1) tracked_list;
  let fresh_ver l =
    let v = Hashtbl.find nversions l + 1 in
    Hashtbl.replace nversions l v;
    v
  in
  let phi_of : (blockid * loc, memphi) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun l ->
      let placed = Hashtbl.create 8 in
      let work = Queue.create () in
      List.iter
        (fun b -> Queue.push b work)
        (Option.value ~default:[] (Hashtbl.find_opt def_blocks l));
      while not (Queue.is_empty work) do
        let b = Queue.pop work in
        List.iter
          (fun df ->
            if not (Hashtbl.mem placed df) && Analysis.Dominance.reachable dom df
            then begin
              Hashtbl.replace placed df ();
              let phi = { mloc = l; mver = 0 (* set in renaming *); margs = [] } in
              Hashtbl.replace phi_of (df, l) phi;
              Hashtbl.replace phis df
                (phi :: Option.value ~default:[] (Hashtbl.find_opt phis df));
              Queue.push df work
            end)
          (Analysis.Dominance.frontier dom b)
      done)
    tracked_list;
  (* 3. Renaming walk over the dominator tree. *)
  let mu : (label, (loc * int) list) Hashtbl.t = Hashtbl.create 64 in
  let chi : (label, (loc * int * int) list) Hashtbl.t = Hashtbl.create 64 in
  let ret_vers : (label, (loc * int) list) Hashtbl.t = Hashtbl.create 8 in
  let stacks : (loc, int list) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace stacks l [ 1 ]) tracked_list;
  let top l = List.hd (Hashtbl.find stacks l) in
  let push l v = Hashtbl.replace stacks l (v :: Hashtbl.find stacks l) in
  let preds = Ir.Func.preds f in
  ignore preds;
  let rec walk b =
    let pushed = ref [] in
    (* Memory phis define new versions at block entry. *)
    List.iter
      (fun phi ->
        let v = fresh_ver phi.mloc in
        (* [mver] is assigned exactly once: the walk visits each block once. *)
        Hashtbl.replace phi_of (b, phi.mloc) phi;
        phi.mver <- v;
        push phi.mloc v;
        pushed := phi.mloc :: !pushed)
      (Option.value ~default:[] (Hashtbl.find_opt phis b));
    List.iter
      (fun i ->
        (match Hashtbl.find_opt raw_mu i.lbl with
        | Some ls -> Hashtbl.replace mu i.lbl (List.map (fun l -> (l, top l)) ls)
        | None -> ());
        match Hashtbl.find_opt raw_chi i.lbl with
        | Some ls ->
          Hashtbl.replace chi i.lbl
            (List.map
               (fun l ->
                 let old = top l in
                 let nv = fresh_ver l in
                 push l nv;
                 pushed := l :: !pushed;
                 (l, nv, old))
               ls)
        | None -> ())
      f.blocks.(b).instrs;
    (match f.blocks.(b).term.tkind with
    | Ret _ ->
      Hashtbl.replace ret_vers f.blocks.(b).term.tlbl
        (List.map (fun l -> (l, top l)) out_locs)
    | Br _ | Jmp _ -> ());
    (* Fill successor phi arguments. *)
    List.iter
      (fun s ->
        List.iter
          (fun phi -> phi.margs <- (b, top phi.mloc) :: phi.margs)
          (Option.value ~default:[] (Hashtbl.find_opt phis s)))
      (Ir.Func.succs f b);
    List.iter walk (Analysis.Dominance.children dom b);
    List.iter
      (fun l -> Hashtbl.replace stacks l (List.tl (Hashtbl.find stacks l)))
      !pushed
  in
  if Array.length f.blocks > 0 then walk 0;
  {
    fname = f.fname;
    tracked = tracked_list;
    entry_locs;
    out_locs;
    mu;
    chi;
    phis;
    ret_vers;
    nversions;
  }

(** Inert per-function SSA used when [build_func] faults and the caller
    opted into per-function degradation: no tracked locations, no
    annotations. Sound only if the consumer distrusts the function. *)
let empty_func_ssa (fname : fname) : func_ssa =
  {
    fname;
    tracked = [];
    entry_locs = [];
    out_locs = [];
    mu = Hashtbl.create 1;
    chi = Hashtbl.create 1;
    phis = Hashtbl.create 1;
    ret_vers = Hashtbl.create 1;
    nversions = Hashtbl.create 1;
  }

(** [hook] runs before each function (fault injection / budget ticks from
    the driver); [on_fault] — when given — catches any exception raised
    while processing one function, reports it, and substitutes
    [empty_func_ssa] so the remaining functions still get real Memory SSA. *)
let build ?budget ?hook ?on_fault (p : P.t) (pa : Analysis.Andersen.t)
    (cg : Analysis.Callgraph.t) (mr : Analysis.Modref.t) : t =
  let funcs = Hashtbl.create 16 in
  P.iter_funcs
    (fun f ->
      let compute () =
        match on_fault with
        | None ->
          (match hook with Some h -> h f.fname | None -> ());
          (match budget with
          | Some b -> Diag.Budget.tick b Diag.Memssa
          | None -> ());
          build_func pa cg mr f
        | Some report -> (
          try
            (match hook with Some h -> h f.fname | None -> ());
            (match budget with
            | Some b -> Diag.Budget.tick b Diag.Memssa
            | None -> ());
            build_func pa cg mr f
          with e ->
            report f.fname e;
            empty_func_ssa f.fname)
      in
      (* One span per function when tracing; exactly [compute ()] otherwise. *)
      let fs =
        if Obs.Trace.enabled () then
          Obs.Trace.with_span ~cat:"memssa" ~args:[ ("fn", Obs.Trace.Str f.fname) ]
            "memssa.func" compute
        else compute ()
      in
      Hashtbl.replace funcs f.fname fs)
    p;
  { prog = p; pa; cg; mr; funcs }

(* ------------------------------------------------------------------ *)
(* Pretty printing (Fig. 5-style dumps, for tests and the CLI)         *)
(* ------------------------------------------------------------------ *)

let pp_func (t : t) ppf (f : func) =
  let fs = func_ssa t f.fname in
  let objects = t.pa.objects in
  let locname l = Objects.loc_name objects l in
  Fmt.pf ppf "def %s(%a) [in: %a] {@."
    f.fname
    (Fmt.list ~sep:Fmt.comma Fmt.string)
    (List.map (P.var_name t.prog) f.params)
    (Fmt.list ~sep:Fmt.comma Fmt.string)
    (List.map (fun l -> locname l ^ "_1") fs.entry_locs);
  Array.iter
    (fun b ->
      Fmt.pf ppf "b%d:@." b.bid;
      List.iter
        (fun phi ->
          Fmt.pf ppf "  %s_%d := memphi(%a)@." (locname phi.mloc) phi.mver
            (Fmt.list ~sep:Fmt.comma (fun ppf (pb, v) -> Fmt.pf ppf "b%d:%d" pb v))
            phi.margs)
        (phis_at fs b.bid);
      List.iter
        (fun i ->
          let mus = mu_at fs i.lbl in
          let chis = chi_at fs i.lbl in
          Fmt.pf ppf "  l%d: %s" i.lbl (Ir.Printer.instr_to_string t.prog i);
          if mus <> [] then
            Fmt.pf ppf " [%a]"
              (Fmt.list ~sep:Fmt.comma (fun ppf (l, v) ->
                   Fmt.pf ppf "mu(%s_%d)" (locname l) v))
              mus;
          if chis <> [] then
            Fmt.pf ppf " [%a]"
              (Fmt.list ~sep:Fmt.comma (fun ppf (l, nv, ov) ->
                   Fmt.pf ppf "%s_%d := chi(%s_%d)" (locname l) nv (locname l) ov))
              chis;
          Fmt.pf ppf "@.")
        b.instrs;
      let rets = ret_vers_at fs b.term.tlbl in
      Fmt.pf ppf "  l%d: %s" b.term.tlbl
        (Fmt.str "%a" (Ir.Printer.term_kind t.prog) b.term.tkind);
      if rets <> [] then
        Fmt.pf ppf " [out: %a]"
          (Fmt.list ~sep:Fmt.comma (fun ppf (l, v) ->
               Fmt.pf ppf "%s_%d" (locname l) v))
          rets;
      Fmt.pf ppf "@.")
    f.blocks;
  Fmt.pf ppf "}@."

let to_string (t : t) : string =
  P.fold_funcs (fun acc f -> acc ^ Fmt.str "%a" (pp_func t) f) "" t.prog
