(** Guided instrumentation — the paper's key contribution (§3.4, Figure 7).

    Starting from the uses at critical operations, instrumentation-item
    sets propagate backwards over the VFG: ⊥-nodes are instrumented as in
    full instrumentation and pass the requirement on; ⊤-nodes whose shadow
    can be strongly updated emit a single [sigma := T] and cut the
    propagation; ⊤-nodes that cannot (weak/semi-strong stores, call chis,
    memory phis, virtual parameters) pass the requirement through their
    memory dependencies.

    Opt I (value-flow simplification, §3.5.1) is folded in: a needed ⊥
    top-level node whose must-flow closure has interior structure reads the
    conjunction of its ⊥ sources directly. *)

type options = { opt1 : bool }

type result = {
  plan : Item.plan;
  needed_nodes : int;    (** VFG nodes reached — Table 1's %B numerator *)
  opt1_simplified : int; (** closures simplified — Table 1's "S" column *)
}

(** What planning reads besides Γ and the build's program index, built
    once per VFG and shared by every variant planned over it: the call
    sites of each callee, a walker for Opt I's must-flow closures and the
    traversal's worklist. Planning reuses the walker and the worklist, so
    one context serves one domain, one plan at a time. *)
type context

val context : Vfg.Build.t -> context

(** One variant's plan over a shared context.

    [distrusted] lists functions whose static results are no longer
    trusted (budget blown or a phase faulted on them): they receive the
    full (MSan) item set via {!Full.instrument_func}, every store
    program-wide keeps shadow memory accurate, and the calling protocol is
    relayed across the trust boundary. Degradation only ever adds items. *)
val plan :
  ?options:options ->
  ?distrusted:(Ir.Types.fname, unit) Hashtbl.t ->
  context ->
  Vfg.Resolve.gamma ->
  result

(** [build ?options ?distrusted bld gamma] is
    [plan ?options ?distrusted (context bld) gamma]: the one-variant case. *)
val build :
  ?options:options ->
  ?distrusted:(Ir.Types.fname, unit) Hashtbl.t ->
  Vfg.Build.t ->
  Vfg.Resolve.gamma ->
  result
