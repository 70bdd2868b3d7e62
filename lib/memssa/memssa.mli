(** Memory SSA construction (§3.1 of the paper, following Chow et al.'s
    mu/chi form).

    Address-taken variables (abstract locations) are annotated onto the IR
    as side tables rather than rewritten into it:

    - every load carries [mu(rho)] for each location its pointer may read;
    - every store carries [rho_m := chi(rho_n)] for each location it may
      write (a chi both uses and defines its location);
    - every allocation carries a chi per location of the new object;
    - every call carries mu(REF(callee)) and chi(MOD(callee)) — the virtual
      input and output parameters;
    - the function entry defines version 1 of every location visible on
      entry; every [ret] records the current version of each output
      location.

    Versions are per (function, location), assigned by the standard SSA
    renaming walk with phi placement at iterated dominance frontiers. The
    runtime never sees memory versions (shadow memory is keyed by address);
    they exist purely to give the VFG its def-use edges.

    The side tables are arrays, immutable once built: mu and chi by label
    for the whole program, memory phis by block within each function, and
    the per-function records by function number. {!build} also builds the
    program index ({!Analysis.Index}), computing each function's dominator
    tree once for the index and for phi placement; both value-flow graphs,
    Opt II and guided planning read that one index through {!index}. *)

open Ir.Types

type loc = int

type memphi = {
  mloc : loc;
  mutable mver : int;
  mutable margs : (blockid * int) list;
}

type func_ssa = {
  fname : fname;
  tracked : loc list;        (** every location this function touches *)
  entry_locs : loc list;     (** virtual input parameters *)
  out_locs : loc list;       (** virtual output parameters *)
  phis : memphi list array;  (** by block *)
  versions : int array;      (** the highest version of each location of
                                 [tracked], in order *)
}

type t

(** Build Memory SSA for every function. [budget] adds a cooperative
    deadline tick per function; [hook] runs before each function (fault
    injection from the driver); [on_fault] — when given — catches any
    exception raised while processing one function, reports it, and
    substitutes an inert per-function SSA: no tracked location, and no
    annotation at any of the function's labels. That is only sound if the
    caller then distrusts that function. *)
val build :
  ?budget:Diag.Budget.t ->
  ?hook:(fname -> unit) ->
  ?on_fault:(fname -> exn -> unit) ->
  Ir.Prog.t -> Analysis.Andersen.t -> Analysis.Callgraph.t ->
  Analysis.Modref.t -> t

(** The program index, built with the Memory SSA. *)
val index : t -> Analysis.Index.t

(** A function's Memory SSA, by its number in {!index}. *)
val func : t -> int -> func_ssa

(** A function's Memory SSA, by name.
    @raise Not_found for a name the program does not define. *)
val func_ssa : t -> fname -> func_ssa

(** Annotations of one statement (empty when absent). *)
val mu_at : t -> label -> (loc * int) list

val chi_at : t -> label -> (loc * int * int) list
val phis_at : func_ssa -> blockid -> memphi list

(** The version of each output location at a [ret]. *)
val ret_vers_at : t -> label -> (loc * int) list

(** Fig. 5-style dump, for tests and the CLI. *)
val pp_func : t -> Format.formatter -> func -> unit

val to_string : t -> string
