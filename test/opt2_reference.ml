(* Test-only references for Opt II and the condensation, kept as they were
   before both were made dense: Opt II with per-critical hash tables, its
   own hash-table must-flow closure and per-function dominance and
   reachability tables, on a deep copy of the graph; the condensation with one global sort over
   [((cv * ncomps) + cu) * kspan + kind] keys. The equivalence tests compare
   the library's versions against these. The sort key overflows 63 bits once
   a call-site label passes about 2^55, so [condensation] is only a
   reference on graphs with ordinary labels. *)

open Ir.Types
module G = Vfg.Graph

(* The members of [x]'s must-flow closure (Definition 2) over [defs], the
   defining instruction of each variable of one function: the walk of the
   library's [Mfc] as it was before it read the program index, so that this
   reference shares no closure code with the Opt II it checks. *)
let closure_members (defs : (var, instr_kind) Hashtbl.t) (x : var) : var list =
  let members = ref [] in
  let seen = Hashtbl.create 16 in
  let rec go v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.replace seen v ();
      members := v :: !members;
      match Hashtbl.find_opt defs v with
      | Some (Copy (_, o)) | Some (Unop (_, _, o)) -> operand o
      | Some (Binop (_, _, o1, o2)) ->
        operand o1;
        operand o2
      | Some (Field_addr (_, y, _)) -> go y
      | Some (Index_addr (_, y, o)) ->
        go y;
        operand o
      | Some
          ( Const _ | Alloc _ | Global_addr _ | Func_addr _ | Input _ | Load _ | Call _
          | Phi _ | Store _ | Output _ )
      | None ->
        ()
    end
  and operand = function Var y -> go y | Cst _ | Undef -> () in
  go x;
  !members

(* The rewired deep copy and |R|. *)
let rewired (bld : Vfg.Build.t) : G.t * int =
  let g = G.copy bld.graph in
  let troot = G.intern g G.Root_t in
  let p = bld.prog in
  let doms = Hashtbl.create 16 in
  let dom_of fn =
    match Hashtbl.find_opt doms fn with
    | Some d -> d
    | None ->
      let f = Ir.Prog.get_func p fn in
      let d = (Analysis.Dominance.compute f, Analysis.Dominance.label_positions f) in
      Hashtbl.replace doms fn d;
      d
  in
  let reach_tbls = Hashtbl.create 16 in
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
  let def_tbls = Hashtbl.create 16 in
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
    (fun (c : Vfg.Build.critical) ->
      match c.cop with
      | Var x ->
        let defs = defs_of c.cfunc in
        let members = closure_members defs x in
        let in_closure = Hashtbl.create 32 in
        let add_id id = Hashtbl.replace in_closure id () in
        List.iter
          (fun v ->
            (match G.find g (G.Top v) with Some id -> add_id id | None -> ());
            match Hashtbl.find_opt defs v with
            | Some (Load (_, _)) when bld.config.track_memory -> (
              let lbl =
                match G.find g (G.Top v) with
                | Some id -> (
                  match G.def_of g id with G.Dinstr (_, l) -> Some l | _ -> None)
                | None -> None
              in
              match lbl with
              | Some l -> (
                match Memssa.mu_at bld.mssa l with
                | [ (loc, ver) ] when concrete_loc loc -> (
                  match G.find g (G.Mem (c.cfunc, loc, ver)) with
                  | Some id -> add_id id
                  | None -> ())
                | _ -> ())
              | None -> ())
            | _ -> ())
          members;
        let dom, pos = dom_of c.cfunc in
        Hashtbl.iter
          (fun t () ->
            List.iter
              (fun (r, _) ->
                if not (Hashtbl.mem in_closure r) then begin
                  let def_lbl =
                    match G.def_of g r with
                    | G.Dinstr (fn, l) | G.Dchi (fn, l) ->
                      if fn = c.cfunc then Some l else None
                    | G.Dparam _ | G.Dmemphi _ | G.Dentry _ | G.Droot -> None
                  in
                  let cannot_re_reach l =
                    match (Hashtbl.find_opt pos l, Hashtbl.find_opt pos c.clbl) with
                    | Some (bl, _), Some (bs, _) -> not (block_reaches c.cfunc bl bs)
                    | _ -> false
                  in
                  match def_lbl with
                  | Some l
                    when Analysis.Dominance.label_dominates dom pos c.clbl l
                         && cannot_re_reach l ->
                    let into =
                      List.filter
                        (fun (d, _) -> Hashtbl.mem in_closure d)
                        (Helpers.vfg_succs g r)
                    in
                    if into <> [] then begin
                      List.iter (fun (d, k) -> G.remove_edge g ~src:r ~dst:d k) into;
                      G.add_edge g ~src:r ~dst:troot G.intra;
                      Hashtbl.replace redirected r ()
                    end
                  | _ -> ()
                end)
              (Helpers.vfg_preds g t))
          in_closure
      | Cst _ | Undef -> ())
    bld.criticals;
  (g, Hashtbl.length redirected)

let run ?context_sensitive (bld : Vfg.Build.t) : Vfg.Opt2.result =
  let g, redirected = rewired bld in
  { gamma = Vfg.Resolve.resolve ?context_sensitive g; redirected }

(* Iterative Tarjan over the Eintra-only subgraph, then component-level
   reversed edges deduped by sorting packed keys. *)
let condensation (t : G.t) : G.condensation =
  let n = G.nnodes t in
  let comp = Array.make n (-1) in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Bytes.make n '\000' in
  let stack = ref [] in
  let ncomps = ref 0 in
  let idx = ref 0 in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      index.(root) <- !idx;
      lowlink.(root) <- !idx;
      incr idx;
      stack := root :: !stack;
      Bytes.set on_stack root '\001';
      let frames = ref [ (root, ref (Helpers.vfg_succs t root)) ] in
      while !frames <> [] do
        match !frames with
        | [] -> ()
        | (v, rest) :: tl -> (
          match !rest with
          | (w, k) :: more when G.is_intra k && index.(w) = -1 ->
            rest := more;
            index.(w) <- !idx;
            lowlink.(w) <- !idx;
            incr idx;
            stack := w :: !stack;
            Bytes.set on_stack w '\001';
            frames := (w, ref (Helpers.vfg_succs t w)) :: !frames
          | (w, k) :: more when G.is_intra k ->
            rest := more;
            if Bytes.get on_stack w = '\001' && index.(w) < lowlink.(v) then
              lowlink.(v) <- index.(w)
          | _ :: more -> rest := more
          | [] ->
            frames := tl;
            (match tl with
            | (u, _) :: _ -> if lowlink.(v) < lowlink.(u) then lowlink.(u) <- lowlink.(v)
            | [] -> ());
            if lowlink.(v) = index.(v) then begin
              let c = !ncomps in
              incr ncomps;
              let last = ref (-1) in
              while !last <> v do
                match !stack with
                | w :: rest' ->
                  stack := rest';
                  Bytes.set on_stack w '\000';
                  comp.(w) <- c;
                  last := w
                | [] -> last := v
              done
            end)
      done
    end
  done;
  let ncomps = !ncomps in
  let members_off = Array.make (ncomps + 1) 0 in
  for v = 0 to n - 1 do
    members_off.(comp.(v) + 1) <- members_off.(comp.(v) + 1) + 1
  done;
  let nontrivial = ref 0 in
  for c = 1 to ncomps do
    if members_off.(c) >= 2 then incr nontrivial;
    members_off.(c) <- members_off.(c) + members_off.(c - 1)
  done;
  let members = Array.make n 0 in
  let fill = Array.copy members_off in
  for v = 0 to n - 1 do
    let c = comp.(v) in
    members.(fill.(c)) <- v;
    fill.(c) <- fill.(c) + 1
  done;
  let max_label = ref (-1) in
  for v = 0 to n - 1 do
    List.iter
      (fun (_, k) ->
        if (not (G.is_intra k)) && G.label k > !max_label then max_label := G.label k)
      (Helpers.vfg_preds t v)
  done;
  let kspan = (2 * (!max_label + 1)) + 1 in
  let keys = Array.make (G.nedges t) 0 in
  let nkeys = ref 0 in
  for v = 0 to n - 1 do
    let cv = comp.(v) in
    List.iter
      (fun (u, k) ->
        let cu = comp.(u) in
        let kc = Helpers.kind_code k in
        if not (cu = cv && kc = 0) then begin
          keys.(!nkeys) <- (((cv * ncomps) + cu) * kspan) + kc;
          incr nkeys
        end)
      (Helpers.vfg_preds t v)
  done;
  let keys = Array.sub keys 0 !nkeys in
  Array.sort Int.compare keys;
  let nuniq = ref 0 in
  Array.iteri (fun i k -> if i = 0 || keys.(i - 1) <> k then incr nuniq) keys;
  let cpred_off = Array.make (ncomps + 1) 0 in
  let cpred = Array.make !nuniq 0 in
  let ckind_bits =
    let b = ref 1 in
    while 1 lsl !b < kspan do incr b done;
    !b
  in
  let j = ref 0 in
  Array.iteri
    (fun i key ->
      if i = 0 || keys.(i - 1) <> key then begin
        let kc = key mod kspan in
        let rest = key / kspan in
        let cu = rest mod ncomps in
        let cv = rest / ncomps in
        cpred.(!j) <- (cu lsl ckind_bits) lor kc;
        cpred_off.(cv + 1) <- !j + 1;
        incr j
      end)
    keys;
  for c = 1 to ncomps do
    if cpred_off.(c) < cpred_off.(c - 1) then cpred_off.(c) <- cpred_off.(c - 1)
  done;
  {
    G.comp;
    ncomps;
    members_off;
    members;
    cpred_off;
    cpred;
    ckind_bits;
    nontrivial_sccs = !nontrivial;
    max_label = !max_label;
  }

(* Every edge as (src, dst, kind), sorted: the edge multiset, read from the
   successor lists and, separately, from the predecessor lists. *)
let edge_multiset (g : G.t) =
  let succ = ref [] and pred = ref [] in
  for v = 0 to G.nnodes g - 1 do
    G.iter_succs g v (fun d k -> succ := (v, d, k) :: !succ);
    G.iter_preds g v (fun s k -> pred := (s, v, k) :: !pred)
  done;
  (List.sort compare !succ, List.sort compare !pred)
