(** The value-flow graph (§3.2): one node per SSA definition (top-level and
    memory versions) plus the two roots T (defined) and F (undefined); an
    edge [v -> w] records that v's value data-depends on w's.
    Interprocedural edges carry their call-site label so definedness
    resolution can match calls with returns. Nodes are interned to dense
    integers. *)

open Ir.Types

type loc = int

type node =
  | Root_t
  | Root_f
  | Top of var                   (** an SSA top-level definition *)
  | Mem of fname * loc * int     (** a memory SSA version *)

type edge_kind =
  | Eintra
  | Ecall of label               (** callee formal -> caller actual at site *)
  | Eret of label                (** caller result -> callee return at site *)

(** Where a node is defined — consumed by the instrumentation rules. *)
type def_site =
  | Droot
  | Dinstr of fname * label      (** top-level def at an instruction *)
  | Dparam of fname              (** function formal parameter *)
  | Dchi of fname * label        (** memory def at a store/alloc/call chi *)
  | Dmemphi of fname * blockid   (** memory phi *)
  | Dentry of fname              (** memory version 1: virtual input, or the
                                     pseudo-entry of a local stack object *)

type t

val create : unit -> t

(** Get-or-create the dense id of a node. *)
val intern : t -> node -> int

val node_of : t -> int -> node
val find : t -> node -> int option

val set_def : t -> int -> def_site -> unit
val def_of : t -> int -> def_site

(** Idempotent per (src, dst, kind). *)
val add_edge : t -> src:int -> dst:int -> edge_kind -> unit

(** Remove one specific edge, if present; used by Opt II's rewiring and
    by fault injection (drop-vfg-edge) to seed a structural bug the
    verifier must catch. *)
val remove_edge : t -> src:int -> dst:int -> edge_kind -> unit

(** Dependencies of a node. *)
val succs : t -> int -> (int * edge_kind) list

(** Dependents of a node. *)
val preds : t -> int -> (int * edge_kind) list

val nnodes : t -> int
val nedges : t -> int

val node_to_string : Ir.Prog.t -> Analysis.Objects.t -> node -> string
val iter_nodes : (int -> node -> unit) -> t -> unit

(** Deep copy of the graph's [nnodes] slots. *)
val copy : t -> t

(** A copy with its own edges that reads [t]'s node tables, so Opt II can
    rewire a scratch graph while guided instrumentation keeps the
    original: only the edge lists, out-degrees and hub sets are
    duplicated. [intern] of a new node and [set_def] on the copy raise
    [Invalid_argument]; [t] must not gain nodes while the copy is in
    use. *)
val copy_edges : t -> t

(** The quotient of the graph by its intraprocedural ([Eintra]) strongly-
    connected components. Within such an SCC every node reaches every other
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
          [comp lsl ckind_bits lor kind] with kind 0 = Eintra,
          2l+1 = Ecall l, 2l+2 = Eret l; deduped, intra-component
          Eintra edges dropped *)
  ckind_bits : int;         (** bit width of the kind field in [cpred] *)
  nontrivial_sccs : int;    (** components with >= 2 members *)
  max_label : int;          (** highest call-site label on any edge, or -1 *)
}

(** Cached: recomputed only after a node or edge mutation. Built without
    a global sort: Tarjan's components, then [cpred] by counting sort on
    the target component with each segment sorted and deduped, so every
    segment is in ascending packed order. *)
val condensation : t -> condensation
