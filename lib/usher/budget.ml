(* Resource budgets for the analysis pipeline.

   The mechanics (deadline clock, fuel counters, amortized polling) live in
   [Diag.Budget] so that every analysis library can burn fuel without
   depending on the usher layer; this module is the policy end: it turns
   the user-facing knobs into a budget and re-exports the mechanics. *)

include Diag.Budget

let of_knobs (k : Config.knobs) : Diag.Budget.t option =
  match (k.budget_ms, k.solver_fuel, k.vfg_node_cap, k.resolve_fuel) with
  | None, None, None, None -> None
  | _ ->
    Some
      (Diag.Budget.make ?budget_ms:k.budget_ms ?solver_fuel:k.solver_fuel
         ?resolve_fuel:k.resolve_fuel ?vfg_node_cap:k.vfg_node_cap ())
