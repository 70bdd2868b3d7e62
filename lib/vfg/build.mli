(** VFG construction (§3.2) with the three update flavours at stores:

    - {b strong} — the pointer targets a single concrete location (a scalar
      global, or a scalar stack slot of a non-recursive function): the old
      version is killed;
    - {b semi-strong} — the paper's novel rule (Fig. 6): the pointer
      provably derives from one allocation site that dominates the store
      and the location is a scalar, so the flow bypasses intermediate
      versions back to the version before the allocation;
    - {b weak} — everything else: the old version flows on.

    With [track_memory = false] the builder produces the Usher_TL graph:
    loads conservatively depend on the F root and memory nodes do not
    exist. *)

open Ir.Types

type update_kind = Strong | Semi_strong | Weak

type config = {
  track_memory : bool;     (** false = Usher_TL *)
  semi_strong : bool;      (** ablation knob *)
}

val default_config : config

(** A critical operation (the paper's Definition 1): the statement label,
    the operand whose definedness is checked, and the enclosing function. *)
type critical = { clbl : label; cop : operand; cfunc : fname }

type t = {
  graph : Graph.t;
  prog : Ir.Prog.t;
  pa : Analysis.Andersen.t;
  cg : Analysis.Callgraph.t;
  mr : Analysis.Modref.t;
  mssa : Memssa.t;
  config : config;
  criticals : critical list;
  store_kind : (label, update_kind) Hashtbl.t;
  semi_strong_cuts : int;
  ret_operands : (fname, (label * operand option) list) Hashtbl.t;
  index : Index.t;
      (** the program index the build read; Opt II and planning read it
          too (one per build, see {!Index}) *)
}

(** Build the VFG. [budget] adds a per-function deadline tick and the node
    cap; [hook] runs before each function (fault injection from the
    driver); [on_fault] — when given — catches any exception raised while
    processing one function and reports it, leaving that function's
    value-flow fragment partial. Partial fragments are only sound if the
    caller then distrusts those functions (see {!force_distrusted}). *)
val build :
  ?config:config ->
  ?budget:Diag.Budget.t ->
  ?hook:(fname -> unit) ->
  ?on_fault:(fname -> exn -> unit) ->
  Ir.Prog.t ->
  Analysis.Andersen.t ->
  Analysis.Callgraph.t ->
  Analysis.Modref.t ->
  Memssa.t ->
  t

(** Can a store to this object strongly update it: a scalar global, or a
    scalar stack slot of a function the call graph finds non-recursive? *)
val concrete : Analysis.Callgraph.t -> Analysis.Objects.obj -> bool

(** Soundness forcing for per-function degradation: pin every node defined
    in a distrusted function — plus the full call interface between
    distrusted and trusted code — to the F root, so a re-resolved Γ treats
    everything the distrusted set may influence as potentially undefined.
    Adding edges only grows the ⊥ set, so the degraded Γ stays sound. *)
val force_distrusted : t -> (fname, 'a) Hashtbl.t -> unit

(** Store classification counts for Table 1's %SU / %WU columns. *)
type store_stats = {
  total_stores : int;
  strong : int;
  semi : int;
  weak_singleton : int;   (** singleton points-to but weak/semi update *)
  weak_other : int;
}

val store_stats : t -> store_stats
