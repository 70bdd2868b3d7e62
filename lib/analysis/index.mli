(** The IR facts the analyses after pointer analysis read, indexed once
    per program: [Memssa.build] builds it, with each function's dominator
    tree, and keeps it. Memory SSA (its records by function number), both
    value-flow graph builds (the semi-strong rule), the must-flow closures
    ([Vfg.Mfc]), Opt II and guided planning all read this one index, so
    none keeps a def, label or dominance table of its own. Its function
    numbers are the program's own ({!Ir.Prog.func_number}, declaration
    order), as in the graph.

    The index is immutable once built, and any domain may read it, as
    long as no pass changes the program's functions. *)

open Ir.Types

type t

(** [build p visit] indexes [p]. Each function's dominator tree is
    computed once: the index keeps its DFS intervals, and [visit f dom]
    gets the function and the tree, in number order, before the next
    function's tree is computed.
    @raise Invalid_argument from [2^20] functions, [2^21] blocks in a
    function or [2^21 - 1] instructions in a block. *)
val build : Ir.Prog.t -> (func -> Dominance.t -> unit) -> t

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
