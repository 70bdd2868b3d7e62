(* Resource budgets for the analysis pipeline.

   The mechanics (deadline clock, amortized polling) live in [Diag.Budget]
   so that every analysis library can poll the deadline without depending
   on the usher layer; this module is the policy end: it turns the
   user-facing knob into a budget and re-exports the mechanics. *)

include Diag.Budget

let of_knobs (k : Config.knobs) : Diag.Budget.t option =
  Option.map (fun budget_ms -> Diag.Budget.make ~budget_ms) k.budget_ms
