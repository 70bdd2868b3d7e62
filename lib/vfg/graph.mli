(** The value-flow graph (§3.2): one node per SSA definition (top-level and
    memory versions) plus the two roots T (defined) and F (undefined); an
    edge [v -> w] records that v's value data-depends on w's.
    Interprocedural edges carry their call-site label so definedness
    resolution can match calls with returns. Nodes are interned to dense
    integers, and every node and edge is stored as a few unboxed ints. *)

open Ir.Types

type loc = int

(** A node's key, as built and printed. The graph stores it packed;
    {!node_of} rebuilds it. *)
type node =
  | Root_t
  | Root_f
  | Top of var                   (** an SSA top-level definition *)
  | Mem of fname * loc * int     (** a memory SSA version *)

(** An edge's kind: intraprocedural, or a call or return at a call-site
    label. Immediate, so iterating edges allocates nothing. *)
type kind [@@immediate]

val intra : kind

(** [call l]: callee formal -> caller actual at site [l]. *)
val call : label -> kind

(** [ret l]: caller result -> callee return at site [l]. *)
val ret : label -> kind

val is_intra : kind -> bool
val is_call : kind -> bool

(** The call-site label of a call or return kind. *)
val label : kind -> label

(** [""], ["call lN"] or ["ret lN"]. *)
val kind_to_string : kind -> string

(** Where a node is defined — consumed by the instrumentation rules. *)
type def_site =
  | Droot
  | Dinstr of fname * label      (** top-level def at an instruction *)
  | Dparam of fname              (** function formal parameter *)
  | Dchi of fname * label        (** memory def at a store/alloc/call chi *)
  | Dmemphi of fname * blockid   (** memory phi *)
  | Dentry of fname              (** memory version 1: virtual input, or the
                                     pseudo-entry of a local stack object *)

(** The kind of a {!def_site}, for {!set_def}. *)
type def_kind = Kinstr | Kparam | Kchi | Kmemphi | Kentry

type t

(** [nodes] (the expected node count), [vars] and [labels] (the
    program's variable and label counts) size the tables up front;
    everything grows on demand. *)
val create : ?nodes:int -> ?vars:int -> ?labels:int -> unit -> t

(** Get-or-create the dense id of a node. *)
val intern : t -> node -> int

val find : t -> node -> int option
val node_of : t -> int -> node

(** Get-or-create the index of a function name; {!mem} and {!set_def}
    take it. Indices are dense, in first-use order. *)
val func_index : t -> fname -> int

(** The index of a function name, or -1. *)
val find_func : t -> fname -> int

(** [intern (Top v)], without allocating. *)
val top : t -> var -> int

(** The id of [Top v], or -1. *)
val top_id : t -> var -> int

(** [mem t fi l ver] is [intern (Mem (f, l, ver))] for the function [f]
    of index [fi], without allocating. *)
val mem : t -> int -> loc -> int -> int

(** The variable of a [Top] node, or -1 for any other node. *)
val top_var : t -> int -> var

val is_mem : t -> int -> bool

(** [set_def t id k ~func ~at] records [id]'s def site: kind [k] in the
    function of index [func], at label or block [at] ([at] is ignored for
    [Kparam] and [Kentry]). *)
val set_def : t -> int -> def_kind -> func:int -> at:int -> unit

val def_of : t -> int -> def_site

(** Idempotent per (src, dst, kind). *)
val add_edge : t -> src:int -> dst:int -> kind -> unit

(** Remove one specific edge, if present; used by Opt II's rewiring and
    by fault injection (drop-vfg-edge) to seed a structural bug the
    verifier must catch. *)
val remove_edge : t -> src:int -> dst:int -> kind -> unit

(** [iter_succs t v f] calls [f dst kind] on each dependency of [v],
    newest first. [f] may remove edges: an edge removed during the walk
    may or may not still be visited, and one added is not. *)
val iter_succs : t -> int -> (int -> kind -> unit) -> unit

(** [iter_preds t v f] calls [f src kind] on each dependent of [v],
    newest first, with the same rules as {!iter_succs}. *)
val iter_preds : t -> int -> (int -> kind -> unit) -> unit

val nnodes : t -> int
val nedges : t -> int

val node_to_string : Ir.Prog.t -> Analysis.Objects.t -> node -> string
val iter_nodes : (int -> node -> unit) -> t -> unit

(** Deep copy of the graph's [nnodes] slots. *)
val copy : t -> t

(** A copy with its own edges that reads [t]'s node tables, so Opt II can
    rewire a scratch graph while guided instrumentation keeps the
    original: only the edge arrays, out-degrees and hub sets are
    duplicated. [intern] of a new node, [func_index] of a new function
    and [set_def] on the copy raise [Invalid_argument]; [t] must not gain
    nodes while the copy is in use. *)
val copy_edges : t -> t

(** The quotient of the graph by its intraprocedural strongly-connected
    components. Within such an SCC every node reaches every other
    without crossing a call or return edge, so context-sensitive
    reachability is uniform across the component: resolution can run over
    the condensation and distribute the answer to members, exactly. *)
type condensation = {
  comp : int array;         (** node id -> component id *)
  ncomps : int;
  members_off : int array;  (** CSR offsets, length ncomps+1 *)
  members : int array;      (** node ids grouped by component *)
  cpred_off : int array;    (** CSR offsets, length ncomps+1 *)
  cpred : int array;
      (** reversed edges, one packed int each:
          [comp lsl ckind_bits lor kind] with kind 0 = intra,
          2l+1 = call l, 2l+2 = ret l; deduped, intra-component
          intra edges dropped *)
  ckind_bits : int;         (** bit width of the kind field in [cpred] *)
  nontrivial_sccs : int;    (** components with >= 2 members *)
  max_label : int;          (** highest call-site label on any edge, or -1 *)
}

(** Cached: recomputed only after a node or edge mutation. Built without
    a global sort: Tarjan's components, then [cpred] by counting sort on
    the target component with each segment sorted and deduped, so every
    segment is in ascending packed order. *)
val condensation : t -> condensation
