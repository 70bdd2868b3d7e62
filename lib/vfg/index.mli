(** The IR facts the value-flow layer reads, indexed once per program.
    {!Build.build} makes one and keeps it in {!Build.t}; the semi-strong
    rule, the must-flow closures ({!Mfc}), Opt II and guided planning read
    it, so none keeps a def or label table of its own. Functions are
    numbered in [Ir.Prog.iter_funcs] order, as in the graph.

    One index per domain: apart from its dominance memo an index is
    immutable, and only the domain that built it may call {!dominates},
    which fills the memo. The full graph is built, and Opt II runs, on the
    caller's domain; the top-level-only graph is built on the helper
    domain of [Usher.Fork]; each build owns its index. *)

open Ir.Types

type t

(** @raise Invalid_argument from [2^20] functions, [2^21] blocks in a
    function or [2^21 - 1] instructions in a block. *)
val build : Ir.Prog.t -> t

val nfuncs : t -> int
val nvars : t -> int
val func : t -> int -> func

(** The number of a function name, or -1. *)
val func_number : t -> fname -> int

(** The label of a variable's defining instruction, or -1. *)
val def_label : t -> var -> label

(** A parameter's position among its function's parameters, or -1. *)
val param_pos : t -> var -> int

(** The function holding a label, or -1 for a label no block holds. *)
val label_func : t -> label -> int

val label_block : t -> label -> blockid

(** A label's index in its block; [max_int] for a terminator. *)
val label_pos : t -> label -> int

(** The kind of the instruction at a label (not a terminator's). *)
val kind : t -> label -> instr_kind

(** [dominates t la lb]: does the statement at [la] dominate the one at
    [lb], both in one function? In one block, earlier dominates later,
    reflexively. *)
val dominates : t -> label -> label -> bool
