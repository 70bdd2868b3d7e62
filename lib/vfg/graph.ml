(* The value-flow graph (§3.2): nodes are SSA definitions (top-level and
   memory versions) plus the two roots T (defined) and F (undefined); an edge
   [v -> w] records that v's value data-depends on w's. Interprocedural edges
   carry their call-site label so definedness resolution can match calls with
   returns. Nodes are interned to dense integers. *)

open Ir.Types

type loc = int

type node =
  | Root_t
  | Root_f
  | Top of var                   (* an SSA top-level definition *)
  | Mem of fname * loc * int     (* a memory SSA version *)

type edge_kind =
  | Eintra
  | Ecall of label               (* callee formal -> caller actual at site *)
  | Eret of label                (* caller result -> callee return at site *)

(** Where a node is defined — consumed by the instrumentation rules. *)
type def_site =
  | Droot
  | Dinstr of fname * label      (* top-level def at an instruction *)
  | Dparam of fname              (* function formal parameter *)
  | Dchi of fname * label        (* memory def at a store/alloc/call chi *)
  | Dmemphi of fname * blockid   (* memory phi *)
  | Dentry of fname              (* memory version 1: virtual input or
                                    pseudo-entry of a local stack object *)

(** The quotient of the graph by its intraprocedural ([Eintra]) strongly-
    connected components. Within such an SCC every node reaches every other
    without crossing a call or return, so any context-sensitive reachability
    result is uniform across the component — resolution can run over the
    condensation and distribute the answer to members, exactly. *)
type condensation = {
  comp : int array;         (* node id -> component id *)
  ncomps : int;
  members_off : int array;  (* CSR offsets, length ncomps+1 *)
  members : int array;      (* node ids grouped by component *)
  cpred_off : int array;    (* CSR offsets, length ncomps+1 *)
  cpred : int array;        (* reversed edges, one packed int each:
                               [comp lsl ckind_bits lor kind] with kind
                               0 = Eintra, 2l+1 = Ecall l, 2l+2 = Eret l;
                               deduped, intra-component Eintra dropped *)
  ckind_bits : int;         (* bit width of the kind field in [cpred] *)
  nontrivial_sccs : int;    (* components with >= 2 members *)
  max_label : int;          (* highest call-site label on any edge, or -1 *)
}

type t = {
  mutable nnodes : int;
  ids : (node, int) Hashtbl.t;
  mutable rev : node array;                     (* id -> node *)
  mutable succs : (int * edge_kind) list array; (* dependencies of each node *)
  mutable preds : (int * edge_kind) list array; (* dependents of each node *)
  mutable defs : def_site array;
  edge_seen : (int * int * edge_kind, unit) Hashtbl.t;
  mutable nedges : int;
  mutable version : int;    (* bumped on any node/edge mutation *)
  mutable cond : (int * condensation) option;   (* cache, keyed by version *)
}

let dummy_node = Root_t

let create () =
  let t =
    {
      nnodes = 0;
      ids = Hashtbl.create 1024;
      rev = Array.make 1024 dummy_node;
      succs = Array.make 1024 [];
      preds = Array.make 1024 [];
      defs = Array.make 1024 Droot;
      edge_seen = Hashtbl.create 4096;
      nedges = 0;
      version = 0;
      cond = None;
    }
  in
  t

let grow t n =
  if n > Array.length t.rev then begin
    let cap = max n (2 * Array.length t.rev) in
    let rev = Array.make cap dummy_node in
    Array.blit t.rev 0 rev 0 t.nnodes;
    t.rev <- rev;
    let succs = Array.make cap [] in
    Array.blit t.succs 0 succs 0 t.nnodes;
    t.succs <- succs;
    let preds = Array.make cap [] in
    Array.blit t.preds 0 preds 0 t.nnodes;
    t.preds <- preds;
    let defs = Array.make cap Droot in
    Array.blit t.defs 0 defs 0 t.nnodes;
    t.defs <- defs
  end

let intern t (n : node) : int =
  match Hashtbl.find_opt t.ids n with
  | Some id -> id
  | None ->
    let id = t.nnodes in
    grow t (id + 1);
    t.nnodes <- id + 1;
    Hashtbl.replace t.ids n id;
    t.rev.(id) <- n;
    t.version <- t.version + 1;
    id

let node_of t id = t.rev.(id)
let find t n = Hashtbl.find_opt t.ids n

let set_def t id d = t.defs.(id) <- d
let def_of t id = t.defs.(id)

let add_edge t ~(src : int) ~(dst : int) (k : edge_kind) =
  if not (Hashtbl.mem t.edge_seen (src, dst, k)) then begin
    Hashtbl.replace t.edge_seen (src, dst, k) ();
    t.succs.(src) <- (dst, k) :: t.succs.(src);
    t.preds.(dst) <- (src, k) :: t.preds.(dst);
    t.nedges <- t.nedges + 1;
    t.version <- t.version + 1
  end

(** Remove one specific edge, if present; used by Opt II's rewiring and
    by fault injection (drop-vfg-edge) to seed a structural bug the
    verifier must catch. *)
let remove_edge t ~(src : int) ~(dst : int) (k : edge_kind) =
  if Hashtbl.mem t.edge_seen (src, dst, k) then begin
    Hashtbl.remove t.edge_seen (src, dst, k);
    t.succs.(src) <-
      List.filter (fun (d, k') -> not (d = dst && k' = k)) t.succs.(src);
    t.preds.(dst) <-
      List.filter (fun (s, k') -> not (s = src && k' = k)) t.preds.(dst);
    t.nedges <- t.nedges - 1;
    t.version <- t.version + 1
  end

let succs t id = t.succs.(id)
let preds t id = t.preds.(id)
let nnodes t = t.nnodes
let nedges t = t.nedges

let node_to_string (p : Ir.Prog.t) (objects : Analysis.Objects.t) = function
  | Root_t -> "T"
  | Root_f -> "F"
  | Top v -> Ir.Prog.var_name p v
  | Mem (f, l, ver) ->
    Printf.sprintf "%s:%s_%d" f (Analysis.Objects.loc_name objects l) ver

let iter_nodes f t =
  for id = 0 to t.nnodes - 1 do
    f id t.rev.(id)
  done

(** Deep copy, so Opt II can rewire a scratch graph while guided
    instrumentation keeps the original (Algorithm 1, line 9's caveat). *)
let copy t =
  {
    nnodes = t.nnodes;
    ids = Hashtbl.copy t.ids;
    rev = Array.copy t.rev;
    succs = Array.copy t.succs;
    preds = Array.copy t.preds;
    defs = Array.copy t.defs;
    edge_seen = Hashtbl.copy t.edge_seen;
    nedges = t.nedges;
    version = t.version;
    (* The cached condensation is immutable; sharing it is safe — any
       mutation of the copy bumps its version and recomputes. *)
    cond = t.cond;
  }

(* Iterative Tarjan over the Eintra-only subgraph. *)
let compute_condensation t : condensation =
  let n = t.nnodes in
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
      let frames = ref [ (root, ref t.succs.(root)) ] in
      while !frames <> [] do
        match !frames with
        | [] -> ()
        | (v, rest) :: tl -> (
          match !rest with
          | (w, Eintra) :: more when index.(w) = -1 ->
            rest := more;
            index.(w) <- !idx;
            lowlink.(w) <- !idx;
            incr idx;
            stack := w :: !stack;
            Bytes.set on_stack w '\001';
            frames := (w, ref t.succs.(w)) :: !frames
          | (w, Eintra) :: more ->
            rest := more;
            if Bytes.get on_stack w = '\001' && index.(w) < lowlink.(v) then
              lowlink.(v) <- index.(w)
          | (_, (Ecall _ | Eret _)) :: more -> rest := more
          | [] ->
            frames := tl;
            (match tl with
            | (u, _) :: _ ->
              if lowlink.(v) < lowlink.(u) then lowlink.(u) <- lowlink.(v)
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
  (* Members, CSR by counting sort. *)
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
  (* Component-level reversed edges, deduped per (pred-comp, comp, kind) by
     sorting packed keys; Eintra edges inside one component vanish, which
     is the whole point. Kinds pack as 0 / 2l+1 / 2l+2. *)
  let max_label = ref (-1) in
  for v = 0 to n - 1 do
    List.iter
      (fun (_, k) ->
        match k with
        | Eintra -> ()
        | Ecall l | Eret l -> if l > !max_label then max_label := l)
      t.preds.(v)
  done;
  let kspan = (2 * (!max_label + 1)) + 1 in
  let keys = Array.make t.nedges 0 in
  let nkeys = ref 0 in
  for v = 0 to n - 1 do
    let cv = comp.(v) in
    List.iter
      (fun (u, k) ->
        let cu = comp.(u) in
        let kc =
          match k with Eintra -> 0 | Ecall l -> (2 * l) + 1 | Eret l -> (2 * l) + 2
        in
        if not (cu = cv && kc = 0) then begin
          keys.(!nkeys) <- ((((cv * ncomps) + cu) * kspan) + kc);
          incr nkeys
        end)
      t.preds.(v)
  done;
  let keys = Array.sub keys 0 !nkeys in
  Array.sort Int.compare keys;
  let nuniq = ref 0 in
  Array.iteri
    (fun i k -> if i = 0 || keys.(i - 1) <> k then incr nuniq)
    keys;
  let cpred_off = Array.make (ncomps + 1) 0 in
  let cpred = Array.make !nuniq 0 in
  (* One packed int per edge keeps the hot search loop to a single random
     load; the kind field is sized to the label range. *)
  let ckind_bits =
    let b = ref 1 in
    while 1 lsl !b < kspan do incr b done;
    !b
  in
  let j = ref 0 in
  Array.iteri
    (fun i key ->
      if i = 0 || keys.(i - 1) <> key then begin
        let cu_kc = key in
        let kc = cu_kc mod kspan in
        let rest = cu_kc / kspan in
        let cu = rest mod ncomps in
        let cv = rest / ncomps in
        cpred.(!j) <- (cu lsl ckind_bits) lor kc;
        cpred_off.(cv + 1) <- !j + 1;
        incr j
      end)
    keys;
  (* cpred_off.(c+1) currently holds the end index only for components with
     edges; make it a proper running maximum. *)
  for c = 1 to ncomps do
    if cpred_off.(c) < cpred_off.(c - 1) then
      cpred_off.(c) <- cpred_off.(c - 1)
  done;
  {
    comp;
    ncomps;
    members_off;
    members;
    cpred_off;
    cpred;
    ckind_bits;
    nontrivial_sccs = !nontrivial;
    max_label = !max_label;
  }

let condensation t : condensation =
  match t.cond with
  | Some (v, c) when v = t.version -> c
  | _ ->
    let c = compute_condensation t in
    t.cond <- Some (t.version, c);
    c
