(* Offset-based, field-sensitive, inclusion-based (Andersen-style) pointer
   analysis with 1-callsite-sensitive heap cloning applied to allocation
   wrapper functions, as configured in the paper (§4.1, citing [10]).

   Nodes of the constraint graph are top-level variables, one synthetic
   return node per function, and memory locations (Objects.loc). Points-to
   sets contain location ids. Arrays are collapsed to one location. Indirect
   calls are resolved on the fly, yielding the final call graph.

   The solver is a difference-propagation worklist with online cycle
   elimination: a union-find over constraint nodes collapses mutually-
   copying nodes (detected lazily when a copy edge propagates nothing new)
   so they share one points-to set. Points-to sets live in one flat word
   array — [wpn] words per node over the location universe — so set union,
   delta tracking and iteration are tight word loops with no per-node
   allocation.

   Assumption inherited from the TinyC lowering: pointers flow only through
   Copy/Phi/Field_addr/Index_addr/Load/Store/Call/Ret; integer arithmetic
   never manufactures pointers. *)

open Ir.Types
module P = Ir.Prog
module Instr = Ir.Instr

type config = {
  field_sensitive : bool;   (* ablation knob; the paper's setting is [true] *)
  heap_cloning : bool;      (* 1-callsite cloning of wrapper allocations *)
  small_array_fields : int; (* extension beyond the paper (its future work
                               names "new techniques for handling arrays"):
                               constant-size arrays of at most this many
                               cells are analysed per-cell instead of
                               collapsed. 0 (the paper's setting) disables
                               it. *)
}

let default_config =
  { field_sensitive = true; heap_cloning = true; small_array_fields = 0 }

(** Open-addressing hash set of non-negative ints (linear probing, load
    factor < 1/2, -1 = empty). The solver dedups copy edges and cycle
    searches on every [add_edge]; the generic [Hashtbl] costs several times
    more per probe than this does. *)
module Iset = struct
  type t = { mutable a : int array; mutable mask : int; mutable n : int }

  let create cap =
    let size = ref 16 in
    while !size < 2 * cap do
      size := !size * 2
    done;
    { a = Array.make !size (-1); mask = !size - 1; n = 0 }

  let slot a mask k =
    let i = ref (k * 0x9E3779B1 land mask) in
    while a.(!i) <> -1 && a.(!i) <> k do
      i := (!i + 1) land mask
    done;
    !i

  let grow t =
    let old = t.a in
    let size = 2 * Array.length old in
    t.a <- Array.make size (-1);
    t.mask <- size - 1;
    Array.iter (fun k -> if k <> -1 then t.a.(slot t.a t.mask k) <- k) old

  (** True iff [k] was newly inserted. *)
  let add t k =
    let i = slot t.a t.mask k in
    if t.a.(i) = k then false
    else begin
      t.a.(i) <- k;
      t.n <- t.n + 1;
      if 2 * t.n > t.mask then grow t;
      true
    end
end

type t = {
  prog : P.t;
  objects : Objects.t;
  nvars : int;
  ret_node : (fname, int) Hashtbl.t;
  wpn : int;                                  (* words per node *)
  pts_words : int array;                      (* flat node -> location set *)
  repr : int array;                           (* node -> collapsed-SCC rep *)
  pts_cache : Bitset.t option array;          (* materialized query views *)
  callees : (label, fname list) Hashtbl.t;    (* resolved call graph *)
  wrappers : (fname, label) Hashtbl.t;        (* wrapper -> its heap site *)
  address_taken_funcs : (fname, unit) Hashtbl.t;
  solve_iterations : int;
  sccs_collapsed : int;       (* cycle-elimination unions (0 when disabled) *)
  edges_deduped : int;        (* duplicate copy edges skipped *)
}

(* ------------------------------------------------------------------ *)
(* Syntactic prepasses                                                 *)
(* ------------------------------------------------------------------ *)

(** One pass collecting both the address-taken function set and the direct
    call sites of each function ((caller, call label, dst) list). *)
let collect_taken_and_callsites (p : P.t) =
  let taken = Hashtbl.create 16 in
  let sites : (fname, (fname * label * var option) list) Hashtbl.t =
    Hashtbl.create 16
  in
  P.iter_instrs
    (fun f _ i ->
      match i.kind with
      | Func_addr (_, g) -> Hashtbl.replace taken g ()
      | Call { callee = Direct g; cdst; _ } ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt sites g) in
        Hashtbl.replace sites g ((f.fname, i.lbl, cdst) :: prev)
      | _ -> ())
    p;
  (taken, sites)

(** Is [f] an allocation wrapper: a non-recursive function whose every return
    value is (through copies and phis) the result of its unique heap
    allocation? Such wrappers get their heap object cloned per call site.
    The cheap shape scan (one heap site, no self-call) runs first; the def
    table is only collected for the few functions that pass it. *)
let detect_wrapper (f : func) : label option =
  let heap_sites = ref [] in
  let self_call = ref false in
  Ir.Func.iter_instrs
    (fun _ i ->
      match i.kind with
      | Alloc a when a.region = Heap -> heap_sites := (i.lbl, a.adst) :: !heap_sites
      | Call { callee = Direct g; _ } when g = f.fname -> self_call := true
      | _ -> ())
    f;
  match (!heap_sites, !self_call) with
  | [ (site, adst) ], false ->
    let defs : (var, instr_kind) Hashtbl.t = Hashtbl.create 32 in
    Ir.Func.iter_instrs
      (fun _ i ->
        match Instr.def_of i.kind with
        | Some v ->
          if Hashtbl.mem defs v then
            Hashtbl.replace defs v
              (Call { cdst = None; callee = Direct "!multi"; cargs = [] })
          else Hashtbl.replace defs v i.kind
        | None -> ())
      f;
    (* Trace every return operand back through copies/phis. *)
    let ok = ref true in
    let visited = Hashtbl.create 16 in
    let rec trace v =
      if not (Hashtbl.mem visited v) then begin
        Hashtbl.replace visited v ();
        if v <> adst then
          match Hashtbl.find_opt defs v with
          | Some (Copy (_, Var y)) -> trace y
          | Some (Phi (_, ins)) ->
            List.iter
              (fun (_, o) ->
                match o with Var y -> trace y | Cst _ | Undef -> ok := false)
              ins
          | Some (Alloc a) when a.adst = v -> ok := false (* other alloc *)
          | _ -> ok := false
      end
    in
    let has_ret = ref false in
    Array.iter
      (fun b ->
        match b.term.tkind with
        | Ret (Some (Var r)) -> has_ret := true; trace r
        | Ret (Some (Cst _ | Undef)) | Ret None -> ok := false
        | Br _ | Jmp _ -> ())
      f.blocks;
    if !ok && !has_ret then Some site else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Object enumeration                                                  *)
(* ------------------------------------------------------------------ *)

let enumerate_objects (cfg : config) (p : P.t) ~wrappers ~callsites ~taken :
    Objects.t =
  let t = Objects.create () in
  List.iter
    (fun (g : global) ->
      let onfields, oarray =
        match g.gsize with
        | Fields n -> ((if cfg.field_sensitive then n else 1), false)
        | Array_of (Cst n)
          when cfg.field_sensitive && n >= 2 && n <= cfg.small_array_fields ->
          (n, false)
        | Array_of _ -> (1, true)
      in
      ignore
        (Objects.add_obj t ~osite:(-1) ~octx:None ~okind:Obj_global
           ~oname:g.gname ~onfields ~oarray ~oowner:"" ~oinit:true))
    p.globals;
  P.iter_funcs
    (fun f ->
      ignore
        (Objects.add_obj t ~osite:(-1) ~octx:None ~okind:(Obj_func f.fname)
           ~oname:("&" ^ f.fname) ~onfields:1 ~oarray:false ~oowner:""
           ~oinit:true))
    p;
  P.iter_instrs
    (fun f _ i ->
      match i.kind with
      | Alloc a ->
        let onfields, oarray =
          match a.asize with
          | Fields n -> ((if cfg.field_sensitive then n else 1), false)
          | Array_of (Cst n)
            when cfg.field_sensitive && n >= 2 && n <= cfg.small_array_fields ->
            (n, false)
          | Array_of _ -> (1, true)
        in
        let mk octx =
          ignore
            (Objects.add_obj t ~osite:i.lbl ~octx ~okind:
               (match a.region with
               | Stack -> Obj_stack
               | Heap -> Obj_heap
               | Global -> Obj_global)
               ~oname:a.aname ~onfields ~oarray ~oowner:f.fname
               ~oinit:a.initialized)
        in
        let cloned =
          cfg.heap_cloning && a.region = Heap
          && Hashtbl.find_opt wrappers f.fname = Some i.lbl
          && not (Hashtbl.mem taken f.fname)
        in
        if cloned then begin
          match Hashtbl.find_opt callsites f.fname with
          | Some ((_ :: _) as sites) ->
            List.iter (fun (_, l, _) -> mk (Some l)) sites
          | Some [] | None -> mk None
        end
        else mk None
      | _ -> ())
    p;
  Objects.freeze t;
  t

(* ------------------------------------------------------------------ *)
(* Constraint solving                                                  *)
(* ------------------------------------------------------------------ *)

type gep = Gfield of int | Gindex of int option

(** A complex constraint hanging off a node, applied to each location that
    flows in: one list per node (merged on union) instead of four parallel
    arrays. *)
type cx =
  | Cload of var                                (* load through the node *)
  | Cstore of var                               (* store through the node *)
  | Cgep of gep * var                           (* field/index address *)
  | Cicall of label * var option * operand list (* indirect call *)

(** Conservative fallback used when the real analysis is out of budget or
    faulted: no objects, empty points-to sets, no resolved callees. Only
    sound when the consumer stops trusting the analysis entirely (the
    pipeline falls back to full MSan instrumentation in that case). *)
let stub (p : P.t) : t =
  let objects = Objects.create () in
  Objects.freeze objects;
  let nvars = P.nvars p in
  let ret_node = Hashtbl.create 16 in
  let next = ref nvars in
  P.iter_funcs
    (fun f ->
      Hashtbl.replace ret_node f.fname !next;
      incr next)
    p;
  {
    prog = p;
    objects;
    nvars;
    ret_node;
    wpn = 1;
    pts_words = Array.make !next 0;
    repr = Array.init !next (fun i -> i);
    pts_cache = Array.make !next None;
    callees = Hashtbl.create 1;
    wrappers = Hashtbl.create 1;
    address_taken_funcs = Hashtbl.create 1;
    solve_iterations = 0;
    sccs_collapsed = 0;
    edges_deduped = 0;
  }

let word_bits = Bitset.word_bits

(* Process-wide work totals (Obs.Metrics): the per-run counters stay the
   source of truth for tables and baselines; these registry counters let
   the bench harness attribute aggregate solver work across a whole run. *)
let m_runs = Obs.Metrics.counter "andersen.runs"
let m_solve_iterations = Obs.Metrics.counter "andersen.solve_iterations"
let m_sccs_collapsed = Obs.Metrics.counter "andersen.sccs_collapsed"
let m_edges_deduped = Obs.Metrics.counter "andersen.edges_deduped"

let run ?(config = default_config) ?(cycle_elim = true) ?budget (p : P.t) : t =
  let taken, callsites = collect_taken_and_callsites p in
  let wrappers = Hashtbl.create 8 in
  P.iter_funcs
    (fun f ->
      match detect_wrapper f with
      | Some site -> Hashtbl.replace wrappers f.fname site
      | None -> ())
    p;
  let objects = enumerate_objects config p ~wrappers ~callsites ~taken in
  let nvars = P.nvars p in
  let ret_node = Hashtbl.create 16 in
  let next = ref nvars in
  P.iter_funcs
    (fun f ->
      Hashtbl.replace ret_node f.fname !next;
      incr next)
    p;
  let loc_node l = !next + l in
  let nnodes = !next + Objects.nlocs objects in
  (* Points-to universe: location ids. One flat array, [wpn] words/node. *)
  let wpn = max 1 ((Objects.nlocs objects + word_bits - 1) / word_bits) in
  let pw = Array.make (nnodes * wpn) 0 in   (* points-to words *)
  let dw = Array.make (nnodes * wpn) 0 in   (* delta words (new since pop) *)
  (* Union-find over constraint nodes: cycle elimination merges mutually-
     copying nodes so they share one points-to set. With [cycle_elim]
     disabled the structure stays the identity and the solver degenerates
     to the textbook difference-propagation worklist (the reference path
     the equivalence properties compare against). *)
  (* -1 = root of its own class, so the identity structure is a plain
     (memset-cheap) fill rather than an Array.init. *)
  let parent = Array.make nnodes (-1) in
  (* Union rank never exceeds log2 nnodes — a byte per node suffices. *)
  let urank = Bytes.make nnodes '\000' in
  let find n =
    let r = ref n in
    while parent.(!r) >= 0 do
      r := parent.(!r)
    done;
    let root = !r in
    let c = ref n in
    while !c <> root do
      let nx = parent.(!c) in
      parent.(!c) <- root;
      c := nx
    done;
    root
  in
  let sccs_collapsed = ref 0 in
  let edges_deduped = ref 0 in
  let copy_succs : int list array = Array.make nnodes [] in
  (* Copy-edge dedup, keyed by the single int [src * nnodes + dst] over
     canonical (representative) ids. *)
  let edge_seen = Iset.create (min 1024 nnodes) in
  let edge_key a b = (a * nnodes) + b in
  (* Per-node complex constraints, merged on union. Seeded on variable
     nodes; a representative may accumulate the constraints of every
     member it absorbed. *)
  let cxs : cx list array = Array.make nnodes [] in
  let callees : (label, fname list) Hashtbl.t = Hashtbl.create 64 in
  let bound : (label * fname, unit) Hashtbl.t = Hashtbl.create 64 in
  (* Int-array FIFO — no boxed queue cells; [on_list] bounds its live
     entries by [nnodes], so it starts at that size up to 1024 slots and
     grows past them only on large programs. *)
  let wbuf = ref (Array.make (max 1 (min 1024 nnodes)) 0) in
  let whead = ref 0 in
  let wtail = ref 0 in
  let on_list = Bytes.make nnodes '\000' in
  let enqueue n =
    if Bytes.unsafe_get on_list n = '\000' then begin
      Bytes.unsafe_set on_list n '\001';
      if !wtail = Array.length !wbuf then
        if !whead > 0 then begin
          (* compact: live entries are [whead, wtail) *)
          let live = !wtail - !whead in
          Array.blit !wbuf !whead !wbuf 0 live;
          whead := 0;
          wtail := live
        end
        else begin
          let b = Array.make (2 * !wtail) 0 in
          Array.blit !wbuf 0 b 0 !wtail;
          wbuf := b
        end;
      !wbuf.(!wtail) <- n;
      incr wtail
    end
  in
  let pts_nonempty n =
    let base = n * wpn in
    let rec go k = k < wpn && (pw.(base + k) <> 0 || go (k + 1)) in
    go 0
  in
  let delta_empty n =
    let base = n * wpn in
    let rec go k = k >= wpn || (dw.(base + k) = 0 && go (k + 1)) in
    go 0
  in
  let add_to n l =
    let n = find n in
    let idx = (n * wpn) + (l / word_bits) in
    let b = 1 lsl (l mod word_bits) in
    if pw.(idx) land b = 0 then begin
      pw.(idx) <- pw.(idx) lor b;
      dw.(idx) <- dw.(idx) lor b;
      enqueue n
    end
  in
  (* pts(a) |= into pts(b), newly set bits recorded in delta(b). *)
  let union_nodes a b =
    let ba = a * wpn and bb = b * wpn in
    let changed = ref false in
    for k = 0 to wpn - 1 do
      let sw = pw.(ba + k) in
      if sw <> 0 then begin
        let dst = pw.(bb + k) in
        let nw = dst lor sw in
        if nw <> dst then begin
          pw.(bb + k) <- nw;
          dw.(bb + k) <- dw.(bb + k) lor (nw lxor dst);
          changed := true
        end
      end
    done;
    !changed
  in
  let add_edge a b =
    let a = find a and b = find b in
    if a <> b then begin
      if Iset.add edge_seen (edge_key a b) then begin
        copy_succs.(a) <- b :: copy_succs.(a);
        if union_nodes a b then enqueue b
      end
      else incr edges_deduped
    end
  in
  (* Collapse [a] and [b] (both representatives) into one node: merge
     points-to sets, successor lists and complex constraints, then mark the
     survivor all-dirty so every (constraint, location) pair is reconsidered
     under the union. *)
  let unify a b =
    let ka = Bytes.unsafe_get urank a and kb = Bytes.unsafe_get urank b in
    let ra, rb = if ka >= kb then (a, b) else (b, a) in
    if ka = kb then
      Bytes.unsafe_set urank ra (Char.chr (Char.code ka + 1));
    parent.(rb) <- ra;
    incr sccs_collapsed;
    let bra = ra * wpn and brb = rb * wpn in
    for k = 0 to wpn - 1 do
      pw.(bra + k) <- pw.(bra + k) lor pw.(brb + k);
      pw.(brb + k) <- 0;
      dw.(brb + k) <- 0;
      dw.(bra + k) <- pw.(bra + k)
    done;
    copy_succs.(ra) <- List.rev_append copy_succs.(rb) copy_succs.(ra);
    copy_succs.(rb) <- [];
    cxs.(ra) <- List.rev_append cxs.(rb) cxs.(ra);
    cxs.(rb) <- [];
    enqueue ra;
    ra
  in
  (* Lazy cycle detection (Hardekopf & Lin style): when propagating along a
     copy edge moves nothing, the edge may close a cycle — search for a
     copy path back to the source and collapse the nodes on it. Each
     (src, dst) pair triggers at most one search. *)
  let lcd_seen = Iset.create 64 in
  (* DFS scratch, allocated on the first cycle search only — most programs
     have acyclic copy graphs and never pay for it. *)
  let dfs_mark_r = ref [||] in
  let dfs_parent_r = ref [||] in
  let dfs_round = ref 0 in
  let try_collapse n s =
    (* Is n reachable from s over copy edges? If so the path s -> ... -> n
       plus the edge n -> s is a cycle: collapse the path (a partial SCC;
       remaining members collapse on later triggers). *)
    if Array.length !dfs_mark_r = 0 then begin
      dfs_mark_r := Array.make nnodes 0;
      dfs_parent_r := Array.make nnodes (-1)
    end;
    let dfs_mark = !dfs_mark_r and dfs_parent = !dfs_parent_r in
    incr dfs_round;
    let round = !dfs_round in
    dfs_mark.(s) <- round;
    dfs_parent.(s) <- -1;
    let stack = ref [ s ] in
    let found = ref false in
    while (not !found) && !stack <> [] do
      match !stack with
      | [] -> ()
      | u :: rest ->
        stack := rest;
        List.iter
          (fun v0 ->
            let v = find v0 in
            if (not !found) && dfs_mark.(v) <> round then begin
              dfs_mark.(v) <- round;
              dfs_parent.(v) <- u;
              if v = n then found := true else stack := v :: !stack
            end)
          copy_succs.(u)
    done;
    if !found then begin
      let rep = ref n in
      let c = ref dfs_parent.(n) in
      while !c >= 0 do
        let nxt = dfs_parent.(!c) in
        let cr = find !c in
        if cr <> !rep then rep := unify !rep cr;
        c := nxt
      done;
      true
    end
    else false
  in
  let push_multi arr k v = arr.(k) <- v :: arr.(k) in
  let operand_edge o dst =
    match o with Var v -> add_edge v dst | Cst _ | Undef -> ()
  in
  let add_callee lbl f =
    let prev = Option.value ~default:[] (Hashtbl.find_opt callees lbl) in
    if not (List.mem f prev) then Hashtbl.replace callees lbl (f :: prev)
  in
  let bind_call lbl (callee : func) dst args =
    if not (Hashtbl.mem bound (lbl, callee.fname)) then begin
      Hashtbl.replace bound (lbl, callee.fname) ();
      add_callee lbl callee.fname;
      (try
         List.iter2 (fun a prm -> operand_edge a prm) args callee.params
       with Invalid_argument _ -> ());
      match dst with
      | Some x -> add_edge (Hashtbl.find ret_node callee.fname) x
      | None -> ()
    end
  in
  (* Seed constraints. *)
  P.iter_instrs
    (fun _ _ i ->
      match i.kind with
      | Alloc a ->
        List.iter
          (fun oid -> add_to a.adst (Objects.loc objects oid 0))
          (Objects.objs_of_site objects i.lbl)
      | Global_addr (x, g) ->
        add_to x (Objects.loc objects (Objects.obj_of_global objects g) 0)
      | Func_addr (x, g) -> (
        match Objects.obj_of_func objects g with
        | Some oid -> add_to x (Objects.loc objects oid 0)
        | None -> ())
      | Copy (x, o) -> operand_edge o x
      | Phi (x, ins) -> List.iter (fun (_, o) -> operand_edge o x) ins
      | Load (x, y) -> push_multi cxs y (Cload x)
      | Store (x, o) -> (
        match o with Var y -> push_multi cxs x (Cstore y) | Cst _ | Undef -> ())
      | Field_addr (x, y, k) -> push_multi cxs y (Cgep (Gfield k, x))
      | Index_addr (x, y, o) ->
        let idx = match o with Cst n -> Some n | Var _ | Undef -> None in
        push_multi cxs y (Cgep (Gindex idx, x))
      | Call { callee = Direct g; cdst; cargs } -> (
        match P.find_func p g with
        | None -> ()
        | Some callee ->
          let wrapper_clone =
            if config.heap_cloning && not (Hashtbl.mem taken g) then
              match Hashtbl.find_opt wrappers g with
              | Some site -> Objects.obj_of_site objects site (Some i.lbl)
              | None -> None
            else None
          in
          (match wrapper_clone with
          | Some oid ->
            (* Clone flows directly to the call's destination; arguments
               still flow into the wrapper. *)
            add_callee i.lbl g;
            (try
               List.iter2 (fun a prm -> operand_edge a prm) cargs callee.params
             with Invalid_argument _ -> ());
            (match cdst with
            | Some x -> add_to x (Objects.loc objects oid 0)
            | None -> ())
          | None -> bind_call i.lbl callee cdst cargs))
      | Call { callee = Indirect v; cdst; cargs } ->
        push_multi cxs v (Cicall (i.lbl, cdst, cargs))
      | Const _ | Unop _ | Binop _ | Output _ | Input _ -> ())
    p;
  (* Wrapper allocations already point to all their clones (the Alloc case
     seeds every object of the site into [adst]), so initializing stores
     inside the wrapper reach every clone. *)
  P.iter_funcs
    (fun f ->
      Array.iter
        (fun b ->
          match b.term.tkind with
          | Ret (Some (Var r)) -> add_edge r (Hashtbl.find ret_node f.fname)
          | Ret _ | Br _ | Jmp _ -> ())
        f.blocks)
    p;
  (* Solve: difference propagation — each pop processes only the locations
     that arrived since the node was last processed, via one recycled word
     buffer, no intermediate lists. *)
  let iterations = ref 0 in
  let dscratch = Array.make wpn 0 in
  while !whead < !wtail do
    incr iterations;
    (* Sampled solver-progress counter for the trace timeline; the enabled
       check keeps the untraced hot loop allocation-free. *)
    if Obs.Trace.enabled () && !iterations land 4095 = 1 then
      Obs.Trace.counter ~cat:"andersen" "andersen.worklist"
        [
          ("iterations", Obs.Trace.Int !iterations);
          ("queued", Obs.Trace.Int (!wtail - !whead));
        ];
    (match budget with
    | Some b -> Diag.Budget.tick b Diag.Andersen
    | None -> ());
    let m = Array.unsafe_get !wbuf !whead in
    incr whead;
    Bytes.unsafe_set on_list m '\000';
    let n = find m in
    (* An absorbed node's entry is stale: unify re-enqueued the survivor
       with a full delta. *)
    if n = m && not (delta_empty n) then begin
      Array.blit dw (n * wpn) dscratch 0 wpn;
      Array.fill dw (n * wpn) wpn 0;
      (* Complex constraints, applied to the new locations only. The bit
         scan shifts the word down, skipping zero bytes wholesale. *)
      (match cxs.(n) with
      | [] -> ()
      | cs ->
        let apply l =
          let lnode = loc_node l in
          List.iter
            (fun c ->
              match c with
              | Cload x -> add_edge lnode x
              | Cstore y -> add_edge y lnode
              | Cgep (g, x) -> (
                let o = Objects.loc_obj objects l in
                let field = Objects.loc_field objects l in
                match g with
                | Gfield k | Gindex (Some k) ->
                  add_to x (Objects.loc objects o.oid (field + k))
                | Gindex None ->
                  (* dynamic index: any cell of the object *)
                  if o.onfields > 1 then
                    Objects.iter_obj_locs objects o.oid (fun l' -> add_to x l')
                  else add_to x (Objects.loc objects o.oid field))
              | Cicall (lbl, dst, args) -> (
                match
                  Objects.func_of_obj objects (Objects.loc_obj objects l).oid
                with
                | Some g -> (
                  match P.find_func p g with
                  | Some callee ->
                    if List.length args = List.length callee.params then
                      bind_call lbl callee dst args
                  | None -> ())
                | None -> ()))
            cs
        in
        for k = 0 to wpn - 1 do
          let w = ref dscratch.(k) in
          if !w <> 0 then begin
            let off = ref (k * word_bits) in
            while !w <> 0 do
              if !w land 0xff = 0 then begin
                w := !w lsr 8;
                off := !off + 8
              end
              else begin
                if !w land 1 <> 0 then apply !off;
                w := !w lsr 1;
                incr off
              end
            done
          end
        done);
      (* Propagate the full set along copy edges; an unproductive edge may
         have closed a cycle. After a collapse the survivor re-propagates
         everything, so the rest of this (stale) successor list can wait. *)
      let collapsed = ref false in
      List.iter
        (fun s0 ->
          if not !collapsed then begin
            let s = find s0 in
            if s <> n then begin
              if union_nodes n s then enqueue s
              else if
                cycle_elim && pts_nonempty n
                && Iset.add lcd_seen (edge_key n s)
              then
                if try_collapse n s then collapsed := true
            end
          end)
        copy_succs.(n)
    end
  done;
  (* Queries index by original node id: record the final representative of
     every node. Absorbed nodes share their representative's set — they ARE
     one node; consumers only read. *)
  (* Path-compress everything, then rewrite the -1 sentinels in place:
     after compression every non-root points directly at its root. *)
  for i = 0 to nnodes - 1 do
    ignore (find i)
  done;
  let repr = parent in
  for i = 0 to nnodes - 1 do
    if repr.(i) < 0 then repr.(i) <- i
  done;
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_solve_iterations !iterations;
  Obs.Metrics.add m_sccs_collapsed !sccs_collapsed;
  Obs.Metrics.add m_edges_deduped !edges_deduped;
  if Obs.Trace.enabled () then
    Obs.Trace.counter ~cat:"andersen" "andersen.worklist"
      [ ("iterations", Obs.Trace.Int !iterations); ("queued", Obs.Trace.Int 0) ];
  {
    prog = p;
    objects;
    nvars;
    ret_node;
    wpn;
    pts_words = pw;
    repr;
    pts_cache = Array.make nnodes None;
    callees;
    wrappers;
    address_taken_funcs = taken;
    solve_iterations = !iterations;
    sccs_collapsed = !sccs_collapsed;
    edges_deduped = !edges_deduped;
  }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let node_of_loc t l = t.nvars + Hashtbl.length t.ret_node + l

let pts_node t (n : int) : Bitset.t =
  match t.pts_cache.(n) with
  | Some b -> b
  | None ->
    let r = t.repr.(n) in
    let b = Bitset.of_words (Array.sub t.pts_words (r * t.wpn) t.wpn) in
    t.pts_cache.(n) <- Some b;
    b

let pts_var t (v : var) : Bitset.t = pts_node t v
let pts_loc t (l : int) : Bitset.t = pts_node t (node_of_loc t l)

let pts_var_list t v = Bitset.elements (pts_var t v)

let singleton_pt t v =
  let s = pts_var t v in
  match Bitset.choose s with
  | Some l when Bitset.cardinal s = 1 -> Some l
  | _ -> None

let callees_of t (lbl : label) : fname list =
  Option.value ~default:[] (Hashtbl.find_opt t.callees lbl)

(** Resolved callees of any call instruction. *)
let call_targets t (i : instr) : fname list =
  match i.kind with
  | Call { callee = Direct g; _ } -> [ g ]
  | Call { callee = Indirect _; _ } -> callees_of t i.lbl
  | _ -> []
