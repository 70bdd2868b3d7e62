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
   they exist purely to give the VFG its def-use edges.

   The side tables are arrays: mu and chi by label for the whole program
   (a ret's output versions are its mu, as Chow et al. annotate a return),
   memory phis by block within each function, and the per-function
   records by function number. The program index ([Analysis.Index]) is
   built here, and each function's dominator tree with it, once. *)

open Ir.Types
module P = Ir.Prog
module Objects = Analysis.Objects
module Bitset = Analysis.Bitset
module Dominance = Analysis.Dominance

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
  phis : memphi list array;                  (* by block *)
  versions : int array;                      (* highest version of each
                                                tracked loc, in order *)
}

type t = {
  prog : P.t;
  pa : Analysis.Andersen.t;
  index : Analysis.Index.t;
  funcs : func_ssa array;                    (* by function number *)
  mu : (loc * int) list array;               (* by label: (rho, version
                                                used); at a ret, the
                                                output versions *)
  chi : (loc * int * int) list array;        (* by label: (rho, new, old) *)
}

let index t = t.index
let func t fi = t.funcs.(fi)

let func_ssa t fname =
  match Analysis.Index.func_number t.index fname with
  | -1 -> raise Not_found
  | fi -> t.funcs.(fi)

let mu_at t lbl = t.mu.(lbl)
let chi_at t lbl = t.chi.(lbl)
let phis_at fs b = fs.phis.(b)
let ret_vers_at t lbl = t.mu.(lbl)

(* ------------------------------------------------------------------ *)

(* A build's arrays: the annotations by label, the raw mu/chi location
   sets by label, and per location its blocks with a chi, its highest
   version and its renaming stack. A function sets the location entries
   it tracks before reading them, so what a faulted function left behind
   there is never read. *)
type state = {
  raw_mu : loc list array;
  raw_chi : loc list array;
  def_blocks : blockid list array;
  nver : int array;
  stacks : int list array;
  mu : (loc * int) list array;
  chi : (loc * int * int) list array;
}

let build_func (s : state) (pa : Analysis.Andersen.t) (cg : Analysis.Callgraph.t)
    (mr : Analysis.Modref.t) (f : func) (dom : Dominance.t) : func_ssa =
  let objects = pa.objects in
  let pts v = Analysis.Andersen.pts_var pa v in
  (* 1. Raw mu/chi location sets per label. *)
  let tracked = Bitset.create () in
  let track l = ignore (Bitset.add tracked l) in
  let note raw lbl ls =
    List.iter track ls;
    raw.(lbl) <- ls
  in
  Ir.Func.iter_instrs
    (fun _ i ->
      match i.kind with
      | Load (_, y) -> note s.raw_mu i.lbl (Bitset.elements (pts y))
      | Store (x, _) -> note s.raw_chi i.lbl (Bitset.elements (pts x))
      | Alloc _ ->
        note s.raw_chi i.lbl
          (List.concat_map
             (fun oid ->
               let acc = ref [] in
               Objects.iter_obj_locs objects oid (fun l -> acc := l :: !acc);
               !acc)
             (Objects.objs_of_site objects i.lbl))
      | Call _ ->
        note s.raw_mu i.lbl (Bitset.elements (Analysis.Modref.call_ref mr i.lbl));
        note s.raw_chi i.lbl (Bitset.elements (Analysis.Modref.call_mod mr i.lbl))
      | Const _ | Copy _ | Unop _ | Binop _ | Field_addr _ | Index_addr _
      | Global_addr _ | Func_addr _ | Phi _ | Output _ | Input _ ->
        ())
    f;
  (* Virtual parameters from the function summary. *)
  let sm = Analysis.Modref.summary mr f.fname in
  let recursive = Analysis.Callgraph.is_recursive cg f.fname in
  let own_stack l =
    let o = Objects.loc_obj objects l in
    o.okind = Objects.Obj_stack && o.oowner = f.fname && not recursive
  in
  Bitset.iter track sm.mref;
  Bitset.iter track sm.mmod;
  let tracked_list = Bitset.elements tracked in
  let entry_locs = List.filter (fun l -> not (own_stack l)) tracked_list in
  let out_locs =
    Bitset.elements sm.mmod |> List.filter (fun l -> not (own_stack l))
  in
  (* 2. Phi placement per tracked location; the entry defines version 1. *)
  List.iter
    (fun l ->
      s.def_blocks.(l) <- [ 0 ];
      s.nver.(l) <- 1;
      s.stacks.(l) <- [ 1 ])
    tracked_list;
  Ir.Func.iter_instrs
    (fun b i -> List.iter (fun l -> s.def_blocks.(l) <- b.bid :: s.def_blocks.(l)) s.raw_chi.(i.lbl))
    f;
  let phis = Array.make (Array.length f.blocks) [] in
  let placed = Array.make (Array.length f.blocks) (-1) in  (* block -> the
                                                             last loc given
                                                             a phi there *)
  let work = Queue.create () in
  List.iter
    (fun l ->
      List.iter (fun b -> Queue.push b work) s.def_blocks.(l);
      while not (Queue.is_empty work) do
        List.iter
          (fun df ->
            if placed.(df) <> l && Dominance.reachable dom df then begin
              placed.(df) <- l;
              phis.(df) <- { mloc = l; mver = 0 (* set in renaming *); margs = [] } :: phis.(df);
              Queue.push df work
            end)
          (Dominance.frontier dom (Queue.pop work))
      done)
    tracked_list;
  (* 3. Renaming walk over the dominator tree. *)
  let fresh_ver l =
    let v = s.nver.(l) + 1 in
    s.nver.(l) <- v;
    v
  in
  let top l = List.hd s.stacks.(l) in
  let push l v = s.stacks.(l) <- v :: s.stacks.(l) in
  let rec walk b =
    let pushed = ref [] in
    (* Memory phis define new versions at block entry. *)
    List.iter
      (fun phi ->
        let v = fresh_ver phi.mloc in
        (* [mver] is assigned exactly once: the walk visits each block once. *)
        phi.mver <- v;
        push phi.mloc v;
        pushed := phi.mloc :: !pushed)
      phis.(b);
    List.iter
      (fun i ->
        (match s.raw_mu.(i.lbl) with
        | [] -> ()
        | ls ->
          s.raw_mu.(i.lbl) <- [];
          s.mu.(i.lbl) <- List.map (fun l -> (l, top l)) ls);
        match s.raw_chi.(i.lbl) with
        | [] -> ()
        | ls ->
          s.raw_chi.(i.lbl) <- [];
          s.chi.(i.lbl) <-
            List.map
              (fun l ->
                let old = top l in
                let nv = fresh_ver l in
                push l nv;
                pushed := l :: !pushed;
                (l, nv, old))
              ls)
      f.blocks.(b).instrs;
    (match f.blocks.(b).term.tkind with
    | Ret _ -> s.mu.(f.blocks.(b).term.tlbl) <- List.map (fun l -> (l, top l)) out_locs
    | Br _ | Jmp _ -> ());
    (* Fill successor phi arguments. *)
    List.iter
      (fun sb -> List.iter (fun phi -> phi.margs <- (b, top phi.mloc) :: phi.margs) phis.(sb))
      (Ir.Func.succs f b);
    List.iter walk (Dominance.children dom b);
    List.iter (fun l -> s.stacks.(l) <- List.tl s.stacks.(l)) !pushed
  in
  if Array.length f.blocks > 0 then walk 0;
  {
    fname = f.fname;
    tracked = tracked_list;
    entry_locs;
    out_locs;
    phis;
    versions = Array.of_list (List.map (fun l -> s.nver.(l)) tracked_list);
  }

(* The inert per-function SSA used when [build_func] faults and the caller
   opted into per-function degradation: no tracked locations, and no
   annotation at any of [f]'s labels (whatever the fault left half-built
   is cleared). Sound only if the consumer distrusts the function. *)
let empty_func_ssa (s : state) (f : func) : func_ssa =
  Array.iter
    (fun b ->
      s.mu.(b.term.tlbl) <- [];
      List.iter (fun i -> s.mu.(i.lbl) <- []; s.chi.(i.lbl) <- []) b.instrs)
    f.blocks;
  {
    fname = f.fname;
    tracked = [];
    entry_locs = [];
    out_locs = [];
    phis = Array.make (Array.length f.blocks) [];
    versions = [||];
  }

(** [hook] runs before each function (fault injection / budget ticks from
    the driver); [on_fault] — when given — catches any exception raised
    while processing one function, reports it, and substitutes
    [empty_func_ssa] so the remaining functions still get real Memory SSA. *)
let build ?budget ?hook ?on_fault (p : P.t) (pa : Analysis.Andersen.t)
    (cg : Analysis.Callgraph.t) (mr : Analysis.Modref.t) : t =
  let nlabels = P.nlabels p and nlocs = Objects.nlocs pa.objects in
  let s =
    {
      raw_mu = Array.make nlabels [];
      raw_chi = Array.make nlabels [];
      def_blocks = Array.make nlocs [];
      nver = Array.make nlocs 0;
      stacks = Array.make nlocs [];
      mu = Array.make nlabels [];
      chi = Array.make nlabels [];
    }
  in
  let funcs = ref [] in
  let index =
    Analysis.Index.build p (fun f dom ->
        let run () =
          Option.iter (fun h -> h f.fname) hook;
          Option.iter (fun b -> Diag.Budget.tick b Diag.Memssa) budget;
          build_func s pa cg mr f dom
        in
        let compute () =
          match on_fault with
          | None -> run ()
          | Some report -> (
            try run ()
            with e ->
              report f.fname e;
              empty_func_ssa s f)
        in
        (* One span per function when tracing; exactly [compute ()] otherwise. *)
        let fs =
          if Obs.Trace.enabled () then
            Obs.Trace.with_span ~cat:"memssa" ~args:[ ("fn", Obs.Trace.Str f.fname) ]
              "memssa.func" compute
          else compute ()
        in
        funcs := fs :: !funcs)
  in
  { prog = p; pa; index; funcs = Array.of_list (List.rev !funcs); mu = s.mu; chi = s.chi }

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
          let mus = mu_at t i.lbl in
          let chis = chi_at t i.lbl in
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
      let rets = ret_vers_at t b.term.tlbl in
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
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  P.iter_funcs (pp_func t ppf) t.prog;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
