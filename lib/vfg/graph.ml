(* The value-flow graph (§3.2): nodes are SSA definitions (top-level and
   memory versions) plus the two roots T (defined) and F (undefined); an edge
   [v -> w] records that v's value data-depends on w's. Interprocedural edges
   carry their call-site label so definedness resolution can match calls with
   returns. Nodes are interned to dense integers.

   Every node and edge is a few unboxed ints:
   - a node is its packed key, its packed def site, the heads of its two
     edge chains and its out-degree. [Top v] is found through a table
     indexed by var, [Mem (f, l, ver)] through an open-addressing table of
     node ids keyed by (function index, location, version), so interning
     neither allocates nor hashes a string;
   - an edge is one cell of four parallel arrays: per direction, the other
     end and the kind packed into one int ([node lsl kbits lor kind], kind
     coded as in the condensation), and the next cell of that node's
     chain. A new edge goes to the head of both chains, so iteration is
     newest first. A removed cell is unlinked and never reused.

   Storage is sized to the program: [create]'s hints set the first
   capacities, the arrays double, and [copy] takes only the used prefix
   (with some room for new edges). Opt II's scratch graph ([copy_edges])
   duplicates only what rewiring mutates (the edge arrays, out-degrees,
   hub sets) and reads the original's node tables.

   The condensation (resolution's search space) is built in time linear in
   the graph apart from sorting the few large segments: Tarjan over int
   stacks, members by counting sort, and [cpred] as CSR by counting sort on
   the target component, each segment then sorted and deduped in place. *)

open Ir.Types

type loc = int

type node =
  | Root_t
  | Root_f
  | Top of var                   (* an SSA top-level definition *)
  | Mem of fname * loc * int     (* a memory SSA version *)

(* A kind is its code: 0 intra, 2l+1 call at l, 2l+2 return to l. *)
type kind = int

let intra = 0
let call l = (2 * l) + 1
let ret l = (2 * l) + 2
let is_intra k = k = 0
let is_call k = k land 1 = 1
let label k = (k - 1) / 2

let kind_to_string k =
  if k = 0 then ""
  else Printf.sprintf "%s l%d" (if is_call k then "call" else "ret") (label k)

(** Where a node is defined — consumed by the instrumentation rules. *)
type def_site =
  | Droot
  | Dinstr of fname * label      (* top-level def at an instruction *)
  | Dparam of fname              (* function formal parameter *)
  | Dchi of fname * label        (* memory def at a store/alloc/call chi *)
  | Dmemphi of fname * blockid   (* memory phi *)
  | Dentry of fname              (* memory version 1: virtual input or
                                    pseudo-entry of a local stack object *)

type def_kind = Kinstr | Kparam | Kchi | Kmemphi | Kentry

(** The quotient of the graph by its intraprocedural strongly-connected
    components. Within such an SCC every node reaches every other without
    crossing a call or return, so any context-sensitive reachability
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
                               0 = intra, 2l+1 = call l, 2l+2 = ret l;
                               deduped, intra-component intra dropped *)
  ckind_bits : int;         (* bit width of the kind field in [cpred] *)
  nontrivial_sccs : int;    (* components with >= 2 members *)
  max_label : int;          (* highest call-site label on any edge, or -1 *)
}

type t = {
  mutable nnodes : int;
  (* Node tables; a [copy_edges] copy shares them. *)
  mutable key : int array;    (* 0 Root_t, 1 Root_f, [v lsl 2 lor 2] Top v,
                                 [fi lsl 2 lor 3] Mem of function fi *)
  mutable mkey : int array;   (* a Mem node's [loc lsl 31 lor ver] *)
  mutable def : int array;    (* [at lsl 24 lor func lsl 3 lor tag]; tag 0
                                 is Droot, 1 + the def_kind otherwise *)
  mutable top : int array;    (* var -> id of [Top var], or -1 *)
  mutable mtab : int array;   (* open addressing over Mem ids, -1 = empty *)
  mutable nmem : int;
  mutable root_t : int;       (* -1 until interned *)
  mutable root_f : int;
  funcs : (fname, int) Hashtbl.t;
  mutable fnames : fname array;
  (* Edges; every graph owns its own. *)
  mutable shead : int array;  (* node -> first cell of its successors, or -1 *)
  mutable phead : int array;  (* node -> first cell of its predecessors *)
  mutable outdeg : int array;
  mutable sval : int array;   (* cell -> [dst lsl kbits lor kind] *)
  mutable snext : int array;  (* cell -> next cell of the source's chain *)
  mutable pval : int array;   (* cell -> [src lsl kbits lor kind] *)
  mutable pnext : int array;  (* cell -> next cell of the target's chain *)
  mutable ncells : int;
  mutable kbits : int;        (* width of the kind field of a packed end *)
  mutable hubs : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* packed successors of the sources whose out-degree exceeds
         [scan_limit] *)
  mutable nedges : int;
  mutable version : int;      (* bumped on any node/edge mutation *)
  mutable cond : (int * condensation) option;  (* cache, keyed by version *)
  shared_nodes : bool;        (* the node tables belong to another graph
                                 (see [copy_edges]) *)
}

(* Bits needed to hold the code [k]. *)
let bits_for k =
  let b = ref 1 in
  while 1 lsl !b <= k do incr b done;
  !b

(* Storage starts small unless told otherwise: a generated test program
   has about a hundred nodes, a large analog tens of thousands. *)
let create ?(nodes = 16) ?(vars = 16) ?(labels = 2) () =
  let nodes = max 16 nodes in
  let cells = max 16 (3 * nodes / 2) in
  {
    nnodes = 0;
    key = Array.make nodes 0;
    mkey = Array.make nodes 0;
    def = Array.make nodes 0;
    top = Array.make vars (-1);
    mtab = Array.make 16 (-1);
    nmem = 0;
    root_t = -1;
    root_f = -1;
    funcs = Hashtbl.create 16;
    fnames = Array.make 16 "";
    shead = Array.make nodes (-1);
    phead = Array.make nodes (-1);
    outdeg = Array.make nodes 0;
    sval = Array.make cells 0;
    snext = Array.make cells 0;
    pval = Array.make cells 0;
    pnext = Array.make cells 0;
    ncells = 0;
    kbits = bits_for (ret labels);
    hubs = Hashtbl.create 8;
    nedges = 0;
    version = 0;
    cond = None;
    shared_nodes = false;
  }

let resize a n fill =
  let a' = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let no_shared_nodes t what =
  if t.shared_nodes then
    invalid_arg ("Graph." ^ what ^ ": the node tables belong to another graph")

(* ---- Nodes ---- *)

let new_node t k mk =
  no_shared_nodes t "intern";
  let id = t.nnodes in
  if id lsr (62 - t.kbits) <> 0 then
    invalid_arg "Graph.intern: node ids and call-site labels overflow an int";
  if id = Array.length t.key then begin
    let n = id + 1 in
    t.key <- resize t.key n 0;
    t.mkey <- resize t.mkey n 0;
    t.def <- resize t.def n 0;
    t.shead <- resize t.shead n (-1);
    t.phead <- resize t.phead n (-1);
    t.outdeg <- resize t.outdeg n 0
  end;
  t.nnodes <- id + 1;
  t.key.(id) <- k;
  t.mkey.(id) <- mk;
  t.def.(id) <- 0;
  t.shead.(id) <- -1;
  t.phead.(id) <- -1;
  t.outdeg.(id) <- 0;
  t.version <- t.version + 1;
  id

let top_id t v = if v < Array.length t.top then t.top.(v) else -1

let top t v =
  let id = top_id t v in
  if id >= 0 then id
  else begin
    let id = new_node t ((v lsl 2) lor 2) 0 in
    if v >= Array.length t.top then t.top <- resize t.top (v + 1) (-1);
    t.top.(v) <- id;
    id
  end

let func_index t f =
  match Hashtbl.find_opt t.funcs f with
  | Some fi -> fi
  | None ->
    no_shared_nodes t "func_index";
    let fi = Hashtbl.length t.funcs in
    if fi = Array.length t.fnames then t.fnames <- resize t.fnames (fi + 1) "";
    t.fnames.(fi) <- f;
    Hashtbl.replace t.funcs f fi;
    fi

let find_func t f = Option.value ~default:(-1) (Hashtbl.find_opt t.funcs f)

let mem_key l ver =
  if l lsr 31 <> 0 || ver lsr 31 <> 0 then
    invalid_arg "Graph.mem: location or version out of range";
  (l lsl 31) lor ver

let mem_slot t fi mk =
  let h = ((mk * 0x9E3779B1) + fi) * 0x85EBCA6B in
  (h lxor (h lsr 29)) land (Array.length t.mtab - 1)

(* The slot of Mem (fi, mk) in [mtab]: its id's, or the empty one where it
   belongs. *)
let find_slot t fi mk =
  let mask = Array.length t.mtab - 1 and k = (fi lsl 2) lor 3 in
  let i = ref (mem_slot t fi mk) in
  while
    let id = t.mtab.(!i) in
    id >= 0 && not (t.key.(id) = k && t.mkey.(id) = mk)
  do
    i := (!i + 1) land mask
  done;
  !i

let mem_find t fi mk = t.mtab.(find_slot t fi mk)

let mem t fi l ver =
  let mk = mem_key l ver in
  let s = find_slot t fi mk in
  let id = t.mtab.(s) in
  if id >= 0 then id
  else begin
    let id = new_node t ((fi lsl 2) lor 3) mk in
    t.nmem <- t.nmem + 1;
    if 2 * t.nmem <= Array.length t.mtab then t.mtab.(s) <- id
    else begin
      let old = t.mtab in
      t.mtab <- Array.make (2 * Array.length old) (-1);
      Array.iter
        (fun m -> if m >= 0 then t.mtab.(find_slot t (t.key.(m) lsr 2) t.mkey.(m)) <- m)
        old;
      t.mtab.(find_slot t fi mk) <- id
    end;
    id
  end

let intern t = function
  | Root_t ->
    if t.root_t < 0 then t.root_t <- new_node t 0 0;
    t.root_t
  | Root_f ->
    if t.root_f < 0 then t.root_f <- new_node t 1 0;
    t.root_f
  | Top v -> top t v
  | Mem (f, l, ver) -> mem t (func_index t f) l ver

let find t n =
  let id =
    match n with
    | Root_t -> t.root_t
    | Root_f -> t.root_f
    | Top v -> top_id t v
    | Mem (f, l, ver) ->
      let fi = find_func t f in
      if fi < 0 then -1 else mem_find t fi (mem_key l ver)
  in
  if id >= 0 then Some id else None

let node_of t id =
  let k = t.key.(id) in
  match k land 3 with
  | 0 -> Root_t
  | 1 -> Root_f
  | 2 -> Top (k lsr 2)
  | _ -> Mem (t.fnames.(k lsr 2), t.mkey.(id) lsr 31, t.mkey.(id) land 0x7FFFFFFF)

let top_var t id =
  let k = t.key.(id) in
  if k land 3 = 2 then k lsr 2 else -1

let is_mem t id = t.key.(id) land 3 = 3

let set_def t id k ~func ~at =
  no_shared_nodes t "set_def";
  let tag, at =
    match k with
    | Kinstr -> (1, at)
    | Kparam -> (2, 0)
    | Kchi -> (3, at)
    | Kmemphi -> (4, at)
    | Kentry -> (5, 0)
  in
  if func lsr 21 <> 0 || at lsr 38 <> 0 then
    invalid_arg "Graph.set_def: function index or label out of range";
  t.def.(id) <- (at lsl 24) lor (func lsl 3) lor tag

let def_of t id =
  let d = t.def.(id) in
  let f = t.fnames.((d lsr 3) land 0x1FFFFF) and at = d lsr 24 in
  match d land 7 with
  | 0 -> Droot
  | 1 -> Dinstr (f, at)
  | 2 -> Dparam f
  | 3 -> Dchi (f, at)
  | 4 -> Dmemphi (f, at)
  | _ -> Dentry f

(* ---- Edges ---- *)

(* A node's out-degree is the number of call sites of its function for a
   formal parameter or a function-entry memory version (one call edge per
   site), and the chi set's size for a store/call memory definition; on
   the benchmark analogs it stays at most 2, because each generated
   function has one call site. Up to [scan_limit] successors, a scan of
   the chain decides membership faster than hashing; a source with more
   (a helper called from thousands of sites) keeps its packed successors
   in a hash set in [hubs] as well, so building its edges stays linear. *)
let scan_limit = 8

let has_packed t src v =
  if t.outdeg.(src) <= scan_limit then begin
    let e = ref t.shead.(src) in
    while !e >= 0 && t.sval.(!e) <> v do e := t.snext.(!e) done;
    !e >= 0
  end
  else Hashtbl.mem (Hashtbl.find t.hubs src) v

let hub_of_chain t src =
  let set = Hashtbl.create (2 * t.outdeg.(src)) in
  let e = ref t.shead.(src) in
  while !e >= 0 do
    Hashtbl.replace set t.sval.(!e) ();
    e := t.snext.(!e)
  done;
  set

(* Makes room for kind [k] in the packed ends: every cell is repacked and
   the hub sets rebuilt. Only a label beyond [create]'s hint gets here. *)
let widen t k =
  let b = bits_for k and old = t.kbits in
  if t.nnodes > 0 && (t.nnodes - 1) lsr (62 - b) <> 0 then
    invalid_arg "Graph.add_edge: node ids and call-site labels overflow an int";
  let mask = (1 lsl old) - 1 in
  let repack a =
    for e = 0 to t.ncells - 1 do
      let x = a.(e) in
      a.(e) <- ((x lsr old) lsl b) lor (x land mask)
    done
  in
  repack t.sval;
  repack t.pval;
  t.kbits <- b;
  let hubs = Hashtbl.create (Hashtbl.length t.hubs) in
  Hashtbl.iter (fun src _ -> Hashtbl.replace hubs src (hub_of_chain t src)) t.hubs;
  t.hubs <- hubs

let has_edge t ~src ~dst k =
  k lsr t.kbits = 0 && has_packed t src ((dst lsl t.kbits) lor k)

let add_edge t ~(src : int) ~(dst : int) (k : kind) =
  if k lsr t.kbits <> 0 then widen t k;
  let v = (dst lsl t.kbits) lor k in
  if not (has_packed t src v) then begin
    let e = t.ncells in
    if e = Array.length t.sval then begin
      t.sval <- resize t.sval (e + 1) 0;
      t.snext <- resize t.snext (e + 1) 0;
      t.pval <- resize t.pval (e + 1) 0;
      t.pnext <- resize t.pnext (e + 1) 0
    end;
    t.ncells <- e + 1;
    t.sval.(e) <- v;
    t.snext.(e) <- t.shead.(src);
    t.shead.(src) <- e;
    t.pval.(e) <- (src lsl t.kbits) lor k;
    t.pnext.(e) <- t.phead.(dst);
    t.phead.(dst) <- e;
    let deg = t.outdeg.(src) + 1 in
    t.outdeg.(src) <- deg;
    if deg = scan_limit + 1 then Hashtbl.replace t.hubs src (hub_of_chain t src)
    else if deg > scan_limit then Hashtbl.replace (Hashtbl.find t.hubs src) v ();
    t.nedges <- t.nedges + 1;
    t.version <- t.version + 1
  end

(** Remove one specific edge, if present; used by Opt II's rewiring and
    by fault injection (drop-vfg-edge) to seed a structural bug the
    verifier must catch. The cell is unlinked from both chains and keeps
    its own links, so a walk standing on it carries on. *)
let remove_edge t ~(src : int) ~(dst : int) (k : kind) =
  if has_edge t ~src ~dst k then begin
    let v = (dst lsl t.kbits) lor k in
    let prev = ref (-1) and e = ref t.shead.(src) in
    while t.sval.(!e) <> v do
      prev := !e;
      e := t.snext.(!e)
    done;
    let e = !e in
    if !prev < 0 then t.shead.(src) <- t.snext.(e) else t.snext.(!prev) <- t.snext.(e);
    let prev = ref (-1) and c = ref t.phead.(dst) in
    while !c <> e do
      prev := !c;
      c := t.pnext.(!c)
    done;
    if !prev < 0 then t.phead.(dst) <- t.pnext.(e) else t.pnext.(!prev) <- t.pnext.(e);
    let deg = t.outdeg.(src) - 1 in
    t.outdeg.(src) <- deg;
    if deg = scan_limit then Hashtbl.remove t.hubs src
    else if deg > scan_limit then Hashtbl.remove (Hashtbl.find t.hubs src) v;
    t.nedges <- t.nedges - 1;
    t.version <- t.version + 1
  end

let iter_succs t v f =
  let e = ref t.shead.(v) in
  while !e >= 0 do
    let c = !e in
    e := t.snext.(c);
    let x = t.sval.(c) in
    f (x lsr t.kbits) (x land ((1 lsl t.kbits) - 1))
  done

let iter_preds t v f =
  let e = ref t.phead.(v) in
  while !e >= 0 do
    let c = !e in
    e := t.pnext.(c);
    let x = t.pval.(c) in
    f (x lsr t.kbits) (x land ((1 lsl t.kbits) - 1))
  done

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
    f id (node_of t id)
  done

let copy_hubs t =
  let hubs = Hashtbl.create (Hashtbl.length t.hubs) in
  Hashtbl.iter (fun src set -> Hashtbl.replace hubs src (Hashtbl.copy set)) t.hubs;
  hubs

(* The edge state of a copy: the used prefixes, and fresh hub sets. The
   edge arrays keep a quarter more room, so that Opt II's rewiring, which
   adds one edge per rewired node, does not double them. *)
let copy_edge_state t =
  let n = t.nnodes and c = t.ncells in
  let cells a =
    let a' = Array.make (c + (c / 4) + 16) 0 in
    Array.blit a 0 a' 0 c;
    a'
  in
  {
    t with
    shead = Array.sub t.shead 0 n;
    phead = Array.sub t.phead 0 n;
    outdeg = Array.sub t.outdeg 0 n;
    sval = cells t.sval;
    snext = cells t.snext;
    pval = cells t.pval;
    pnext = cells t.pnext;
    hubs = copy_hubs t;
  }

(** Deep copy of the first [nnodes] slots; the copy grows on demand. The
    cached condensation is immutable, so the copy shares it: any mutation
    of the copy bumps its version and recomputes. *)
let copy t =
  let n = t.nnodes in
  {
    (copy_edge_state t) with
    key = Array.sub t.key 0 n;
    mkey = Array.sub t.mkey 0 n;
    def = Array.sub t.def 0 n;
    top = Array.copy t.top;
    mtab = Array.copy t.mtab;
    funcs = Hashtbl.copy t.funcs;
    fnames = Array.copy t.fnames;
    shared_nodes = false;
  }

(** A copy with its own edges that reads [t]'s node tables, so Opt II can
    rewire a scratch graph while guided instrumentation keeps the original
    (Algorithm 1, line 9's caveat). *)
let copy_edges t = { (copy_edge_state t) with shared_nodes = true }

(* Iterative Tarjan over the intra-only subgraph. The DFS keeps two int
   stacks: Tarjan's node stack, and the frames, each a node plus the next
   cell of its successor chain not yet scanned. *)
let tarjan t comp =
  let n = t.nnodes in
  let kbits = t.kbits in
  let kmask = (1 lsl kbits) - 1 in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Bytes.make n '\000' in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let frame_node = Array.make n 0 in
  let frame_cell = Array.make n 0 in
  let fp = ref 0 in
  let ncomps = ref 0 in
  let idx = ref 0 in
  let enter v =
    index.(v) <- !idx;
    lowlink.(v) <- !idx;
    incr idx;
    stack.(!sp) <- v;
    incr sp;
    Bytes.set on_stack v '\001';
    frame_node.(!fp) <- v;
    frame_cell.(!fp) <- t.shead.(v);
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      enter root;
      while !fp > 0 do
        let top = !fp - 1 in
        let v = frame_node.(top) in
        let e = frame_cell.(top) in
        if e >= 0 then begin
          frame_cell.(top) <- t.snext.(e);
          let x = t.sval.(e) in
          if x land kmask = 0 then begin
            let w = x lsr kbits in
            if index.(w) = -1 then enter w
            else if Bytes.get on_stack w = '\001' && index.(w) < lowlink.(v) then
              lowlink.(v) <- index.(w)
          end
        end
        else begin
          fp := top;
          if top > 0 then begin
            let u = frame_node.(top - 1) in
            if lowlink.(v) < lowlink.(u) then lowlink.(u) <- lowlink.(v)
          end;
          if lowlink.(v) = index.(v) then begin
            let c = !ncomps in
            incr ncomps;
            let last = ref (-1) in
            while !last <> v do
              decr sp;
              let w = stack.(!sp) in
              Bytes.set on_stack w '\000';
              comp.(w) <- c;
              last := w
            done
          end
        end
      done
    end
  done;
  !ncomps

(* Sorts [a.(lo .. hi-1)] ascending. Almost every segment holds one to
   three entries; the roots' segments hold thousands and need a real
   sort. *)
let sort_segment a lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let s = Array.sub a lo (hi - lo) in
    Array.stable_sort Int.compare s;
    Array.blit s 0 a lo (hi - lo)
  end

let compute_condensation t : condensation =
  let n = t.nnodes in
  let kbits = t.kbits in
  let kmask = (1 lsl kbits) - 1 in
  let comp = Array.make n (-1) in
  let ncomps = tarjan t comp in
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
  (* Component-level reversed edges, CSR by counting sort on the target
     component, then each segment sorted and deduped; intra edges inside
     one component vanish, which is the whole point. One packed int per
     edge, [cu lsl ckind_bits lor kind], keeps the hot search loop to a
     single random load; the kind field is sized to the label range. *)
  let max_label = ref (-1) in
  let cpred_off = Array.make (ncomps + 1) 0 in
  for v = 0 to n - 1 do
    let cv = comp.(v) in
    let e = ref t.phead.(v) in
    while !e >= 0 do
      let x = t.pval.(!e) in
      let kc = x land kmask in
      if kc <> 0 then begin
        if label kc > !max_label then max_label := label kc;
        cpred_off.(cv + 1) <- cpred_off.(cv + 1) + 1
      end
      else if comp.(x lsr kbits) <> cv then cpred_off.(cv + 1) <- cpred_off.(cv + 1) + 1;
      e := t.pnext.(!e)
    done
  done;
  for c = 1 to ncomps do
    cpred_off.(c) <- cpred_off.(c) + cpred_off.(c - 1)
  done;
  let ckind_bits = bits_for (2 * (!max_label + 1)) in
  let buf = Array.make cpred_off.(ncomps) 0 in
  let fill = Array.copy cpred_off in
  for v = 0 to n - 1 do
    let cv = comp.(v) in
    let e = ref t.phead.(v) in
    while !e >= 0 do
      let x = t.pval.(!e) in
      let cu = comp.(x lsr kbits) and kc = x land kmask in
      if not (cu = cv && kc = 0) then begin
        buf.(fill.(cv)) <- (cu lsl ckind_bits) lor kc;
        fill.(cv) <- fill.(cv) + 1
      end;
      e := t.pnext.(!e)
    done
  done;
  (* Sort and dedup each segment, compacting in place: the write cursor
     never passes the read cursor. *)
  let j = ref 0 in
  for c = 0 to ncomps - 1 do
    let lo = cpred_off.(c) and hi = cpred_off.(c + 1) in
    sort_segment buf lo hi;
    cpred_off.(c) <- !j;
    for i = lo to hi - 1 do
      let e = buf.(i) in
      if i = lo || e <> buf.(!j - 1) then begin
        buf.(!j) <- e;
        incr j
      end
    done
  done;
  cpred_off.(ncomps) <- !j;
  {
    comp;
    ncomps;
    members_off;
    members;
    cpred_off;
    cpred = Array.sub buf 0 !j;
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
