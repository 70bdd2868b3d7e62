(* The analyze-as-a-service wire protocol: newline-delimited JSON.

   One request object per line in; one reply object per line out, matched
   by "id". Requests never span lines (string newlines are escaped), so a
   torn connection loses at most the line being written — there is no
   framing state to corrupt.

   Request:
     { "id": "r1", "cmd": "analyze" | "run" | "check" | "bench"
                        | "stats" | "ping",
       "source": "<TinyC source>",          -- analyze/run/check
       "bench": "164.gzip", "scale": 10,    -- bench
       "level": "O0+IM" | "O1" | "O2",
       "variant": "msan" | "tl" | "tl+at" | "opt1" | "usher",
       "engine": "interp" | "vm",           -- run/bench: force the engine;
                                            -- absent = interpreter for the
                                            -- native run, Vm.Engine.choose
                                            -- for the plan runs (cache
                                            -- key "auto")
       "budget_ms": 1000, "solver_fuel": N, "vfg_cap": N,
       "resolve_fuel": N, "verify": true,
       "inject": ["andersen=crash", ...],
       -- test/load hooks:
       "sleep_ms": 100,        -- hold the worker before running
       "crash_worker": 2 }     -- kill the worker on the first N attempts

   Reply:
     { "id": "r1", "status": "...", "code": C, "elapsed_ms": F,
       "cached": B, "retries": N, "output": "<exactly the one-shot
       usherc stdout>", "error": "...", ... }

   Reply codes extend the CLI's exit codes (0 clean / 3 detected /
   4 unsound / 5 certificate violation) with the service-level verdicts:
   6 = overloaded (admission shed or drain shed — retry later),
   7 = quarantined (the request killed its worker past the retry cap;
   an incident artifact was filed), 1 = malformed or failed request. *)

type cmd = Analyze | Run | Check | Bench | Stats | Ping

let cmd_name = function
  | Analyze -> "analyze"
  | Run -> "run"
  | Check -> "check"
  | Bench -> "bench"
  | Stats -> "stats"
  | Ping -> "ping"

type request = {
  id : string;
  cmd : cmd;
  source : string option;  (* analyze / run / check *)
  bench : string option;   (* bench *)
  scale : int;
  level : Optim.Pipeline.level;
  variant : Usher.Config.variant;
  engine : Vm.Engine.t option;  (* run / bench; None = chosen per program *)
  budget_ms : int option;
  solver_fuel : int option;
  vfg_cap : int option;
  resolve_fuel : int option;
  verify : bool;
  inject : Usher.Config.fault list;
  sleep_ms : int;      (* test/load hook: hold the worker this long *)
  crash_worker : int;  (* test hook: raise on the first N attempts *)
}

type status =
  | Sok            (* clean *)
  | Sdetected      (* undefined use detected (exit 3) *)
  | Sunsound       (* soundness divergence (exit 4) *)
  | Sviolation     (* certificate violation (exit 5) *)
  | Soverloaded    (* shed by admission control or drain *)
  | Squarantined   (* worker died past the retry cap; incident filed *)
  | Serror         (* malformed request or structured failure *)

let status_name = function
  | Sok -> "ok"
  | Sdetected -> "detected"
  | Sunsound -> "unsound"
  | Sviolation -> "violation"
  | Soverloaded -> "overloaded"
  | Squarantined -> "quarantined"
  | Serror -> "error"

let code_of_status = function
  | Sok -> 0
  | Serror -> 1
  | Sdetected -> 3
  | Sunsound -> 4
  | Sviolation -> 5
  | Soverloaded -> 6
  | Squarantined -> 7

(** The handler exit codes map straight onto reply statuses. *)
let status_of_exit_code = function
  | 0 -> Sok
  | 3 -> Sdetected
  | 4 -> Sunsound
  | 5 -> Sviolation
  | _ -> Serror

type reply = {
  rid : string;
  status : status;
  output : string;          (* the one-shot usherc stdout, byte-identical *)
  error : string;           (* human-readable failure/shed reason *)
  elapsed_ms : float;
  cached : bool;
  retries : int;
  extra : (string * Json.t) list;  (* stats payload etc. *)
}

let reply ?(output = "") ?(error = "") ?(elapsed_ms = 0.0) ?(cached = false)
    ?(retries = 0) ?(extra = []) ~id status : reply =
  { rid = id; status; output; error; elapsed_ms; cached; retries; extra }

let reply_to_line (r : reply) : string =
  Json.to_line
    (Json.Obj
       ([
          ("id", Json.Str r.rid);
          ("status", Json.Str (status_name r.status));
          ("code", Json.Num (float_of_int (code_of_status r.status)));
          ("elapsed_ms", Json.Num r.elapsed_ms);
          ("cached", Json.Bool r.cached);
          ("retries", Json.Num (float_of_int r.retries));
        ]
       @ (if r.output = "" then [] else [ ("output", Json.Str r.output) ])
       @ (if r.error = "" then [] else [ ("error", Json.Str r.error) ])
       @ r.extra))

(* ---- request parsing ---- *)

let parse_level = function
  | "O0+IM" | "O0" | "o0" -> Ok Optim.Pipeline.O0_IM
  | "O1" | "o1" -> Ok Optim.Pipeline.O1
  | "O2" | "o2" -> Ok Optim.Pipeline.O2
  | s -> Error ("unknown optimization level " ^ s)

let parse_variant = function
  | "msan" -> Ok Usher.Config.Msan
  | "tl" -> Ok Usher.Config.Usher_tl
  | "tlat" | "tl+at" -> Ok Usher.Config.Usher_tl_at
  | "opt1" | "opti" -> Ok Usher.Config.Usher_opt1
  | "usher" | "full" -> Ok Usher.Config.Usher_full
  | s -> Error ("unknown variant " ^ s)

let request_of_json (j : Json.t) : (request, string) result =
  let ( let* ) = Result.bind in
  let str_field k = Option.bind (Json.member k j) Json.str in
  let int_field k = Option.bind (Json.member k j) Json.int_ in
  let bool_field k d =
    match Option.bind (Json.member k j) Json.bool_ with
    | Some b -> b
    | None -> d
  in
  let id = Option.value ~default:"" (str_field "id") in
  let* cmd =
    match str_field "cmd" with
    | Some "analyze" -> Ok Analyze
    | Some "run" -> Ok Run
    | Some "check" -> Ok Check
    | Some "bench" -> Ok Bench
    | Some "stats" -> Ok Stats
    | Some "ping" -> Ok Ping
    | Some c -> Error ("unknown cmd " ^ c)
    | None -> Error "missing cmd"
  in
  let* level =
    match str_field "level" with
    | None -> Ok Optim.Pipeline.O0_IM
    | Some s -> parse_level s
  in
  let* variant =
    match str_field "variant" with
    | None -> Ok Usher.Config.Usher_full
    | Some s -> parse_variant s
  in
  let* engine =
    match str_field "engine" with
    | None -> Ok None
    | Some s -> (
      match Vm.Engine.of_string s with
      | Some e -> Ok (Some e)
      | None -> Error ("unknown engine " ^ s))
  in
  let* inject =
    match Option.bind (Json.member "inject" j) Json.list_ with
    | None -> Ok []
    | Some specs ->
      List.fold_left
        (fun acc spec ->
          let* acc = acc in
          match Json.str spec with
          | None -> Error "inject entries must be strings"
          | Some s -> (
            match Usher.Fault.of_spec s with
            | Ok f -> Ok (f :: acc)
            | Error e -> Error e))
        (Ok []) specs
      |> Result.map List.rev
  in
  let source = str_field "source" in
  let bench = str_field "bench" in
  let* () =
    match cmd with
    | (Analyze | Run | Check) when source = None ->
      Error ("cmd " ^ cmd_name cmd ^ " requires \"source\"")
    | Bench when bench = None -> Error "cmd bench requires \"bench\""
    | _ -> Ok ()
  in
  Ok
    {
      id;
      cmd;
      source;
      bench;
      scale = Option.value ~default:10 (int_field "scale");
      level;
      variant;
      engine;
      budget_ms = int_field "budget_ms";
      solver_fuel = int_field "solver_fuel";
      vfg_cap = int_field "vfg_cap";
      resolve_fuel = int_field "resolve_fuel";
      verify = bool_field "verify" false;
      inject;
      sleep_ms = Option.value ~default:0 (int_field "sleep_ms");
      crash_worker = Option.value ~default:0 (int_field "crash_worker");
    }

let parse_request (line : string) : (request, string) result =
  match Json.parse line with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok j -> request_of_json j
