(* Structured diagnostics and resource budgets for the whole pipeline.

   Every layer reports failures as a [Diag.t] — severity, originating phase,
   optional source location, message — instead of ad-hoc [Failure]/[Error of
   string] exceptions. The pipeline driver (Usher.Pipeline) catches these at
   phase boundaries and degrades soundly instead of crashing: analysis may
   prune instrumentation only when it *proves* definedness, so the only sound
   response to an analysis failure is to fall back toward MORE
   instrumentation (see DESIGN.md, "Graceful degradation").

   [Budget] is the cooperative resource limit threaded through the analysis
   phases: a wall-clock deadline, polled every few dozen ticks. Exhaustion
   raises [Budget.Exhausted], which the pipeline treats exactly like any
   other phase fault. *)

type severity = Info | Warning | Err

(** Pipeline phase a diagnostic originates from (Fig. 3's stages plus the
    runtime and the driver itself). *)
type phase =
  | Lex
  | Parse
  | Lower
  | Ir              (* IR construction / well-formedness *)
  | Optim
  | Andersen
  | Callgraph
  | Modref
  | Memssa
  | Vfg_build
  | Resolve
  | Opt2
  | Instrument
  | Interp
  | Audit           (* the soundness sentinel (differential audit) *)
  | Verify          (* the certificate checkers (lib/verify) *)
  | Driver

type loc = { line : int; col : int }

type t = {
  severity : severity;
  phase : phase;
  loc : loc option;
  message : string;
}

exception Error of t

let severity_name = function Info -> "info" | Warning -> "warning" | Err -> "error"

let phase_name = function
  | Lex -> "lex"
  | Parse -> "parse"
  | Lower -> "lower"
  | Ir -> "ir"
  | Optim -> "optim"
  | Andersen -> "andersen"
  | Callgraph -> "callgraph"
  | Modref -> "modref"
  | Memssa -> "memssa"
  | Vfg_build -> "vfg"
  | Resolve -> "resolve"
  | Opt2 -> "opt2"
  | Instrument -> "instrument"
  | Interp -> "interp"
  | Audit -> "audit"
  | Verify -> "verify"
  | Driver -> "driver"

let to_string (d : t) =
  match d.loc with
  | Some { line; col } ->
    Printf.sprintf "[%s] %s at line %d, col %d: %s" (phase_name d.phase)
      (severity_name d.severity) line col d.message
  | None ->
    Printf.sprintf "[%s] %s: %s" (phase_name d.phase) (severity_name d.severity)
      d.message

(** Raise a [Diag.Error] with severity [Err]. *)
let error ?loc (phase : phase) fmt =
  Fmt.kstr (fun message -> raise (Error { severity = Err; phase; loc; message })) fmt

(* ------------------------------------------------------------------ *)
(* Resource budgets                                                    *)
(* ------------------------------------------------------------------ *)

module Budget = struct
  exception Exhausted of { phase : phase; limit : int }

  type t = {
    deadline : float;            (* absolute, on [Obs.Clock.now_s] *)
    budget_ms : int;
    mutable polls : int;         (* amortizes clock reads *)
  }

  (* How many cooperative ticks between clock reads. Small enough that a
     1 ms deadline still fires promptly inside hot solver loops. *)
  let poll_mask = 63

  (* Deadlines are measured on the monotonic clock: a wall-clock step
     (NTP, operator) must never spuriously blow — or extend — a budget. *)
  let make ~budget_ms : t =
    {
      deadline = Obs.Clock.now_s () +. (float_of_int budget_ms /. 1000.0);
      budget_ms;
      polls = 0;
    }

  let check_deadline (t : t) (phase : phase) =
    if Obs.Clock.now_s () > t.deadline then
      raise (Exhausted { phase; limit = t.budget_ms })

  (** Cooperative cancellation point: cheap unless the poll counter wraps. *)
  let tick (t : t) (phase : phase) =
    t.polls <- t.polls + 1;
    if t.polls land poll_mask = 0 then check_deadline t phase
end

(** Convert any exception escaping a phase into a diagnostic. [phase] is the
    phase whose guard caught it; a structured exception keeps its own. *)
let of_exn (phase : phase) (e : exn) : t =
  match e with
  | Error d -> d
  | Budget.Exhausted { phase = p; limit } ->
    {
      severity = Err;
      phase = p;
      loc = None;
      message =
        Printf.sprintf
          "resource budget exhausted: wall-clock deadline (ms) (limit %d)" limit;
    }
  | e ->
    { severity = Err; phase; loc = None; message = Printexc.to_string e }
