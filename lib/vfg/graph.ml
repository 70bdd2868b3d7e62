(* The value-flow graph (§3.2): nodes are SSA definitions (top-level and
   memory versions) plus the two roots T (defined) and F (undefined); an edge
   [v -> w] records that v's value data-depends on w's. Interprocedural edges
   carry their call-site label so definedness resolution can match calls with
   returns. Nodes are interned to dense integers.

   Storage is sized to the program: the node arrays start at 16 slots and
   double, and [copy] takes only the [nnodes] prefix. Opt II's scratch
   graph ([copy_edges]) duplicates only what rewiring mutates (edge lists,
   out-degrees, hub sets) and reads the original's node tables.

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
  mutable outdeg : int array;
  hubs : (int, (int * edge_kind, unit) Hashtbl.t) Hashtbl.t;
      (* edge sets of the sources whose out-degree exceeds [scan_limit] *)
  mutable nedges : int;
  mutable version : int;    (* bumped on any node/edge mutation *)
  mutable cond : (int * condensation) option;   (* cache, keyed by version *)
  shared_nodes : bool;      (* [ids], [rev] and [defs] belong to another
                               graph (see [copy_edges]) *)
}

let dummy_node = Root_t

(* Storage starts small and doubles: a generated test program has about a
   hundred nodes, a large analog tens of thousands. *)
let initial_capacity = 16

let create () =
  {
    nnodes = 0;
    ids = Hashtbl.create initial_capacity;
    rev = Array.make initial_capacity dummy_node;
    succs = Array.make initial_capacity [];
    preds = Array.make initial_capacity [];
    defs = Array.make initial_capacity Droot;
    outdeg = Array.make initial_capacity 0;
    hubs = Hashtbl.create 8;
    nedges = 0;
    version = 0;
    cond = None;
    shared_nodes = false;
  }

let grow t n =
  if n > Array.length t.rev then begin
    let cap = max n (2 * Array.length t.rev) in
    let resize a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 t.nnodes;
      a'
    in
    t.rev <- resize t.rev dummy_node;
    t.succs <- resize t.succs [];
    t.preds <- resize t.preds [];
    t.defs <- resize t.defs Droot;
    t.outdeg <- resize t.outdeg 0
  end

let no_shared_nodes t what =
  if t.shared_nodes then
    invalid_arg ("Graph." ^ what ^ ": the node tables belong to another graph")

let intern t (n : node) : int =
  match Hashtbl.find_opt t.ids n with
  | Some id -> id
  | None ->
    no_shared_nodes t "intern";
    let id = t.nnodes in
    grow t (id + 1);
    t.nnodes <- id + 1;
    Hashtbl.replace t.ids n id;
    t.rev.(id) <- n;
    t.version <- t.version + 1;
    id

let node_of t id = t.rev.(id)
let find t n = Hashtbl.find_opt t.ids n

let set_def t id d =
  no_shared_nodes t "set_def";
  t.defs.(id) <- d
let def_of t id = t.defs.(id)

let same_kind (a : edge_kind) (b : edge_kind) =
  match (a, b) with
  | Eintra, Eintra -> true
  | Ecall l, Ecall l' | Eret l, Eret l' -> l = l'
  | (Eintra | Ecall _ | Eret _), _ -> false

(* Edge sets are the successor lists themselves. A node's out-degree is
   the number of call sites of its function for a formal parameter or a
   function-entry memory version (one [Ecall] edge per site), and the
   chi set's size for a store/call memory definition; on the benchmark
   analogs it stays at most 2, because each generated function has one
   call site. Up to [scan_limit] successors, a scan of the list decides
   membership faster than hashing the (src, dst, kind) triple; a source
   with more (a helper called from thousands of sites) keeps its edges
   in a hash set in [hubs] as well, so building its edges stays linear. *)
let scan_limit = 8

let has_edge t ~src ~dst k =
  if t.outdeg.(src) <= scan_limit then
    List.exists (fun (d, k') -> d = dst && same_kind k k') t.succs.(src)
  else Hashtbl.mem (Hashtbl.find t.hubs src) (dst, k)

let add_edge t ~(src : int) ~(dst : int) (k : edge_kind) =
  if not (has_edge t ~src ~dst k) then begin
    t.succs.(src) <- (dst, k) :: t.succs.(src);
    t.preds.(dst) <- (src, k) :: t.preds.(dst);
    let deg = t.outdeg.(src) + 1 in
    t.outdeg.(src) <- deg;
    if deg = scan_limit + 1 then begin
      let set = Hashtbl.create (2 * deg) in
      List.iter (fun e -> Hashtbl.replace set e ()) t.succs.(src);
      Hashtbl.replace t.hubs src set
    end
    else if deg > scan_limit then
      Hashtbl.replace (Hashtbl.find t.hubs src) (dst, k) ();
    t.nedges <- t.nedges + 1;
    t.version <- t.version + 1
  end

(** Remove one specific edge, if present; used by Opt II's rewiring and
    by fault injection (drop-vfg-edge) to seed a structural bug the
    verifier must catch. *)
let remove_edge t ~(src : int) ~(dst : int) (k : edge_kind) =
  if has_edge t ~src ~dst k then begin
    t.succs.(src) <-
      List.filter (fun (d, k') -> not (d = dst && same_kind k k')) t.succs.(src);
    t.preds.(dst) <-
      List.filter (fun (s, k') -> not (s = src && same_kind k k')) t.preds.(dst);
    let deg = t.outdeg.(src) - 1 in
    t.outdeg.(src) <- deg;
    if deg = scan_limit then Hashtbl.remove t.hubs src
    else if deg > scan_limit then Hashtbl.remove (Hashtbl.find t.hubs src) (dst, k);
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

let copy_hubs t =
  let hubs = Hashtbl.create (Hashtbl.length t.hubs) in
  Hashtbl.iter (fun src set -> Hashtbl.replace hubs src (Hashtbl.copy set)) t.hubs;
  hubs

(** Deep copy of the first [nnodes] slots; the copy grows on demand. *)
let copy t =
  let n = t.nnodes in
  {
    nnodes = n;
    ids = Hashtbl.copy t.ids;
    rev = Array.sub t.rev 0 n;
    succs = Array.sub t.succs 0 n;
    preds = Array.sub t.preds 0 n;
    defs = Array.sub t.defs 0 n;
    outdeg = Array.sub t.outdeg 0 n;
    hubs = copy_hubs t;
    nedges = t.nedges;
    version = t.version;
    (* The cached condensation is immutable; sharing it is safe — any
       mutation of the copy bumps its version and recomputes. *)
    cond = t.cond;
    shared_nodes = false;
  }

(** A copy with its own edges that reads [t]'s node tables, so Opt II can
    rewire a scratch graph while guided instrumentation keeps the original
    (Algorithm 1, line 9's caveat). Only the edge arrays and hub sets are
    duplicated; interning a new node or setting a def on the copy raises. *)
let copy_edges t =
  let n = t.nnodes in
  {
    t with
    succs = Array.sub t.succs 0 n;
    preds = Array.sub t.preds 0 n;
    outdeg = Array.sub t.outdeg 0 n;
    hubs = copy_hubs t;
    shared_nodes = true;
  }

(* Iterative Tarjan over the Eintra-only subgraph. The DFS keeps two int
   stacks: Tarjan's node stack, and the frames, each a node plus the part
   of its successor list not yet scanned. *)
let tarjan t comp =
  let n = t.nnodes in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Bytes.make n '\000' in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let frame_node = Array.make n 0 in
  let frame_rest = Array.make n [] in
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
    frame_rest.(!fp) <- t.succs.(v);
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      enter root;
      while !fp > 0 do
        let top = !fp - 1 in
        let v = frame_node.(top) in
        match frame_rest.(top) with
        | (w, Eintra) :: more when index.(w) = -1 ->
          frame_rest.(top) <- more;
          enter w
        | (w, Eintra) :: more ->
          frame_rest.(top) <- more;
          if Bytes.get on_stack w = '\001' && index.(w) < lowlink.(v) then
            lowlink.(v) <- index.(w)
        | (_, (Ecall _ | Eret _)) :: more -> frame_rest.(top) <- more
        | [] ->
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
      done
    end
  done;
  !ncomps

let kind_code = function Eintra -> 0 | Ecall l -> (2 * l) + 1 | Eret l -> (2 * l) + 2

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
     component, then each segment sorted and deduped; Eintra edges inside
     one component vanish, which is the whole point. One packed int per
     edge, [cu lsl ckind_bits lor kind], keeps the hot search loop to a
     single random load; kinds pack as 0 / 2l+1 / 2l+2, and the kind field
     is sized to the label range. *)
  let max_label = ref (-1) in
  let cpred_off = Array.make (ncomps + 1) 0 in
  for v = 0 to n - 1 do
    let cv = comp.(v) in
    List.iter
      (fun (u, k) ->
        match k with
        | Eintra ->
          if comp.(u) <> cv then cpred_off.(cv + 1) <- cpred_off.(cv + 1) + 1
        | Ecall l | Eret l ->
          if l > !max_label then max_label := l;
          cpred_off.(cv + 1) <- cpred_off.(cv + 1) + 1)
      t.preds.(v)
  done;
  for c = 1 to ncomps do
    cpred_off.(c) <- cpred_off.(c) + cpred_off.(c - 1)
  done;
  let kspan = (2 * (!max_label + 1)) + 1 in
  let ckind_bits =
    let b = ref 1 in
    while 1 lsl !b < kspan do incr b done;
    !b
  in
  let buf = Array.make cpred_off.(ncomps) 0 in
  let fill = Array.copy cpred_off in
  for v = 0 to n - 1 do
    let cv = comp.(v) in
    List.iter
      (fun (u, k) ->
        let cu = comp.(u) in
        let kc = kind_code k in
        if not (cu = cv && kc = 0) then begin
          buf.(fill.(cv)) <- (cu lsl ckind_bits) lor kc;
          fill.(cv) <- fill.(cv) + 1
        end)
      t.preds.(v)
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
