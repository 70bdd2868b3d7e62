(** Must Flow-from Closures (the paper's Definition 2): the DAG of top-level
    variables feeding a sink through copies, unary/binary operations,
    address computations and constants, inside the sink's function. The
    closure's key property: sigma(sink) is exactly the conjunction of the
    sources' shadows.

    Opt I ([Instr.Guided]) and Opt II ({!Opt2}) both take their closures
    from {!walk}. *)

open Ir.Types

(** A walker over one {!Analysis.Index.t}: a stamped mark per var and a buffer of
    the last walk's members, reused from walk to walk. A walk allocates
    nothing once the buffer has grown. One walker serves one domain. *)
type t

val create : Analysis.Index.t -> t

(** [walk t ~func x] takes the closure of [x] in the function numbered
    [func]; a variable not defined in that function is a source. It
    replaces the previous walk's results. *)
val walk : t -> func:int -> var -> unit

(** The defining instruction of a variable in the last walk's function;
    [Output Undef] for a variable that function does not define. *)
val def : t -> var -> instr_kind

(** The members, sink included, in the walk's preorder. *)
val nmembers : t -> int

val member : t -> int -> var

(** Members that are not sources (sink included). *)
val interior : t -> int

(** The variable sources (loads, calls, phis, parameters), newest first. *)
val var_sources : t -> var list

(** A constant, allocation or other always-defined producer feeds the
    closure: the T root is a source. *)
val has_defined_source : t -> bool

(** An undef operand feeds the closure: the F root is a source. *)
val has_undef_source : t -> bool

(** Is simplification profitable: interior structure beyond the sink's own
    definition? *)
val simplifiable : t -> bool
