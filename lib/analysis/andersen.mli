(** Offset-based, field-sensitive, inclusion-based (Andersen-style) pointer
    analysis with 1-callsite-sensitive heap cloning applied to allocation
    wrapper functions — the configuration the paper uses (§4.1).

    Nodes of the constraint graph are top-level variables, one synthetic
    return node per function, and memory locations. Points-to sets contain
    location ids. Indirect calls are resolved on the fly, yielding the
    final call graph. *)

open Ir.Types

type config = {
  field_sensitive : bool;   (** ablation knob; the paper's setting is [true] *)
  heap_cloning : bool;      (** 1-callsite cloning of wrapper allocations *)
  small_array_fields : int;
      (** extension beyond the paper: constant-size arrays of at most this
          many cells are analysed per-cell instead of collapsed; 0 (the
          paper's setting) disables it *)
}

val default_config : config

type t = {
  prog : Ir.Prog.t;
  objects : Objects.t;
  nvars : int;
  ret_node : (fname, int) Hashtbl.t;
  wpn : int;             (** words per node in [pts_words] *)
  pts_words : int array; (** flat points-to storage, [wpn] words per node *)
  repr : int array;      (** node -> its collapsed-cycle representative *)
  pts_cache : Bitset.t option array;
      (** lazily materialized per-node views over [pts_words] *)
  callees : (label, fname list) Hashtbl.t;   (** resolved call graph *)
  wrappers : (fname, label) Hashtbl.t;       (** wrapper -> its heap site *)
  address_taken_funcs : (fname, unit) Hashtbl.t;
  solve_iterations : int;
  sccs_collapsed : int;
      (** copy-cycle unions performed by online cycle elimination *)
  edges_deduped : int;  (** duplicate copy edges skipped by the solver *)
}

(** Is [f] an allocation wrapper (unique heap allocation whose result is
    every return value)? Exposed for tests. *)
val detect_wrapper : func -> label option

(** Run the analysis. [budget] ticks the deadline once per worklist
    iteration. [cycle_elim] (default true) collapses copy cycles online via
    union-find — same points-to sets and call graph, fewer iterations;
    [false] keeps the textbook worklist as the reference path for the
    equivalence properties. *)
val run :
  ?config:config -> ?cycle_elim:bool -> ?budget:Diag.Budget.t -> Ir.Prog.t -> t

(** Conservative fallback when the real analysis is out of budget or
    faulted: no objects, empty points-to sets, no resolved callees. Only
    sound when the consumer stops trusting the analysis entirely and falls
    back to full instrumentation. *)
val stub : Ir.Prog.t -> t

(** Points-to set (location ids) of a top-level variable. *)
val pts_var : t -> var -> Bitset.t

(** What a location may point to. *)
val pts_loc : t -> int -> Bitset.t

val pts_var_list : t -> var -> int list

(** The unique pointee, when the set is a singleton. *)
val singleton_pt : t -> var -> int option

(** Resolved callees of a call site. *)
val callees_of : t -> label -> fname list

(** Resolved callees of any call instruction (direct or indirect). *)
val call_targets : t -> instr -> fname list
