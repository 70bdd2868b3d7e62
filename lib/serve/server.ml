(* The analyze-as-a-service daemon.

   One server = one intake loop (stdin or a Unix socket) feeding a
   work-stealing pool of worker domains ([Usher.Pool]). Each request is
   its own fault domain:

   - its granted [Diag.Budget] deadline is written into the knobs, so an
     over-budget program degrades *inside its own request* through the
     existing resilience ladder instead of hanging a worker;
   - an exception escaping a handler is retried with exponential backoff
     ([config.retries] times) and then quarantined: a [Worker_crash]
     incident is filed through the audit machinery and the client gets a
     structured [quarantined] reply — the server never dies;
   - structured failures ([Diag.Error], interpreter traps, unknown
     benchmarks) are deterministic, so they skip the retry loop and
     come back as [error] immediately.

   Backpressure is synchronous: [Admission.admit] runs on the intake
   thread, so a shed request turns into an [overloaded] reply without
   ever touching the pool. Graceful drain ([drain], wired to SIGTERM by
   the CLI) stops intake, gives in-flight work [config.drain_ms] to
   finish, sheds whatever is still queued (workers cannot be killed —
   in-flight requests are bounded by their own granted deadlines), and
   joins the pool. In socket mode, connection fds are refcounted
   ([conn]): intake never closes an fd a worker still owes a reply to,
   so drain delivers every admitted reply and a recycled fd number can
   never be written by a stale request. *)

type config = {
  jobs : int;                 (* worker domains *)
  admission : Admission.config;
  retries : int;              (* transient-crash retries before quarantine *)
  retry_backoff_ms : int;     (* base backoff; doubles per attempt *)
  cache_cap : int;            (* reply-cache entries; 0 disables *)
  incident_dir : string;      (* quarantine/incident artifacts *)
  drain_ms : int;             (* grace for in-flight work on drain *)
  knobs : Usher.Config.knobs; (* server defaults; request fields override *)
}

let default_config =
  {
    jobs = 4;
    admission = Admission.default_config;
    retries = 2;
    retry_backoff_ms = 10;
    cache_cap = 256;
    incident_dir = "_incidents";
    drain_ms = 5_000;
    knobs = Usher.Config.default_knobs;
  }

type t = {
  cfg : config;
  pool : Usher.Pool.t;
  adm : Admission.t;
  cache : Cache.t;
  out_mu : Mutex.t;          (* one reply line at a time, never torn *)
  draining : bool Atomic.t;  (* set: intake refuses new requests *)
  shed_queued : bool Atomic.t; (* set: queued tasks shed on entry *)
}

let m_requests = Obs.Metrics.counter "serve.requests"
let m_replies = Obs.Metrics.counter "serve.replies"
let m_retries = Obs.Metrics.counter "serve.retries"
let m_quarantined = Obs.Metrics.counter "serve.quarantined"
let m_errors = Obs.Metrics.counter "serve.errors"
let h_latency = Obs.Metrics.histogram "serve.request_us"

(* Test hook: [crash_worker N] requests raise this on their first N
   attempts, exercising retry and quarantine deterministically. *)
exception Worker_killed of int

(* kill -9 can strand an atomic-write temp file; they are never loaded
   (the loader requires the final name) but sweeping them on startup
   keeps the artifact directory clean. *)
let sweep_stale_tmp (dir : string) : unit =
  let is_tmp f =
    let inf = ".tmp." in
    let n = String.length f and m = String.length inf in
    let rec at i = i + m <= n && (String.sub f i m = inf || at (i + 1)) in
    at 0
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun f ->
        if is_tmp f then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      entries

let create (cfg : config) : t =
  sweep_stale_tmp cfg.incident_dir;
  {
    cfg;
    pool = Usher.Pool.create ~name:"serve" ~jobs:cfg.jobs ();
    adm = Admission.create cfg.admission;
    cache = Cache.create ~cap:cfg.cache_cap;
    out_mu = Mutex.create ();
    draining = Atomic.make false;
    shed_queued = Atomic.make false;
  }

(* Where replies go. [write] delivers one reply line. [retain]/[release]
   bracket a reply that will be written later from a pool worker, so a
   transport with a closable endpoint (the socket transport) can pin the
   endpoint open until every in-flight reply has been written — a worker
   must never write a raw fd that intake already closed, because the
   kernel can recycle the fd number for another client (or any file the
   process opens) and the late reply would land there. Inline replies
   from the intake thread need no bracket: intake holds its own
   reference for the life of the connection. *)
type sink = {
  write : string -> unit;
  retain : unit -> unit;
  release : unit -> unit;
}

let sink_of_writer (write : string -> unit) : sink =
  { write; retain = ignore; release = ignore }

let send (t : t) ~(sink : sink) (r : Protocol.reply) : unit =
  Obs.Metrics.incr m_replies;
  Mutex.protect t.out_mu (fun () -> sink.write (Protocol.reply_to_line r))

(* Everything that can change a reply, for the cache key. The summary
   from the audit loop covers the ablation switches; the rest is the
   budget/fuel envelope and injected faults. *)
let knobs_fp (k : Usher.Config.knobs) : string =
  let opt = function Some v -> string_of_int v | None -> "-" in
  Printf.sprintf
    "%s budget=%s fuel=%s cap=%s rfuel=%s verify=%b inject=[%s]"
    (Audit.Loop.knobs_summary k)
    (opt k.Usher.Config.budget_ms)
    (opt k.solver_fuel) (opt k.vfg_node_cap) (opt k.resolve_fuel) k.verify
    (String.concat ";" (List.map Usher.Fault.to_string k.inject))

let knobs_for (cfg : config) (req : Protocol.request) ~(granted_ms : int) :
    Usher.Config.knobs =
  let pick o d = match o with Some _ -> o | None -> d in
  let k = cfg.knobs in
  let k =
    {
      k with
      Usher.Config.solver_fuel = pick req.Protocol.solver_fuel k.solver_fuel;
      vfg_node_cap = pick req.vfg_cap k.vfg_node_cap;
      resolve_fuel = pick req.resolve_fuel k.resolve_fuel;
      verify = k.verify || req.verify;
      inject = req.inject;
    }
  in
  Usher.Budget.admit_ms k granted_ms

let run_handler (t : t) (req : Protocol.request)
    ~(knobs : Usher.Config.knobs) : int * string =
  let b = Buffer.create 1024 in
  let code =
    match req.Protocol.cmd with
    | Protocol.Analyze ->
      Handlers.analyze ~knobs ~level:req.level ~variant:req.variant b
        (Option.get req.source)
    | Protocol.Run ->
      Handlers.run ~knobs ~level:req.level ~variant:req.variant
        ?engine:req.engine b
        (Option.get req.source)
    | Protocol.Check ->
      Handlers.check ~knobs ~level:req.level ~incident_dir:t.cfg.incident_dir
        b (Option.get req.source)
    | Protocol.Bench ->
      Handlers.bench ~knobs ~level:req.level ~scale:req.scale
        ?engine:req.engine b
        (Option.get req.bench)
    | Protocol.Stats | Protocol.Ping -> assert false (* handled inline *)
  in
  (code, Buffer.contents b)

type outcome =
  | Done of int * string * int    (* exit code, output, retries used *)
  | Failed of string * int        (* deterministic failure: no retry *)
  | Crashed of string * int       (* crashed past the retry cap *)

let attempt_request (t : t) (req : Protocol.request)
    ~(knobs : Usher.Config.knobs) : outcome =
  let rec attempt n =
    match
      if req.Protocol.crash_worker >= n then raise (Worker_killed n);
      run_handler t req ~knobs
    with
    | code, output -> Done (code, output, n - 1)
    | exception Diag.Error d -> Failed (Diag.to_string d, n - 1)
    | exception Runtime.Interp.Runtime_error m ->
      Failed ("runtime: " ^ m, n - 1)
    | exception Runtime.Interp.Resource_exhausted { what; limit } ->
      Failed (Printf.sprintf "runtime: %s limit %d exhausted" what limit, n - 1)
    | exception Handlers.Unknown_bench name ->
      (* deterministic client error; a stray [Not_found] escaping the
         analysis pipeline falls through to the crash/retry path below *)
      Failed (Printf.sprintf "unknown benchmark %S" name, n - 1)
    | exception e ->
      if n > t.cfg.retries then Crashed (Printexc.to_string e, n - 1)
      else begin
        Obs.Metrics.incr m_retries;
        Unix.sleepf
          (float_of_int (t.cfg.retry_backoff_ms * (1 lsl (n - 1))) /. 1000.);
        attempt (n + 1)
      end
  in
  attempt 1

let quarantine_crash (t : t) (req : Protocol.request)
    ~(knobs : Usher.Config.knobs) ~(msg : string) ~(retries : int) : string =
  Obs.Metrics.incr m_quarantined;
  let inc =
    Audit.Incident.make ~kind:Audit.Incident.Worker_crash
      ~variant:(Protocol.cmd_name req.cmd) ~seed:0 ~mutation:req.id
      ~functions:[] ~labels:[] ~knobs:(knobs_fp knobs)
      ~source:
        (match req.source with
        | Some s -> s
        | None -> Option.value ~default:"" req.bench)
      ()
  in
  let path = Audit.Incident.save ~dir:t.cfg.incident_dir inc in
  Printf.sprintf "worker crashed %d time(s): %s; incident recorded at %s"
    (retries + 1) msg path

(* Runs on a pool worker domain. The request is a fault domain: every
   failure mode below ends in exactly one reply, and nothing escapes to
   the pool (whose own [on_exn] is only a last-resort backstop). *)
let execute (t : t) ~(sink : sink) (req : Protocol.request)
    ~(granted_ms : int) : unit =
  let t0 = Obs.Clock.now_ns () in
  let finish (r : Protocol.reply) =
    let elapsed_ms = float_of_int (Obs.Clock.now_ns () - t0) /. 1e6 in
    Obs.Metrics.observe h_latency (int_of_float (elapsed_ms *. 1000.));
    send t ~sink { r with Protocol.elapsed_ms }
  in
  Fun.protect
    ~finally:(fun () ->
      Admission.release t.adm granted_ms;
      sink.release ())
    (fun () ->
      try
        if Atomic.get t.shed_queued then
          finish
            (Protocol.reply ~id:req.id ~error:"shed during drain"
               Protocol.Soverloaded)
        else
          Obs.Trace.with_span ~cat:"serve"
            ("serve." ^ Protocol.cmd_name req.cmd)
            (fun () ->
              if req.sleep_ms > 0 then
                Unix.sleepf (float_of_int req.sleep_ms /. 1000.);
              let knobs = knobs_for t.cfg req ~granted_ms in
              (* check has an artifact side effect (violation incidents),
                 so a cached reply would not be equivalent; test hooks
                 and fault injection must always execute. *)
              let cacheable =
                req.inject = [] && req.crash_worker = 0
                && req.cmd <> Protocol.Check
              in
              let key =
                if not cacheable then None
                else
                  Some
                    (Cache.key
                       ~cmd:(Protocol.cmd_name req.cmd)
                       ~level:(Optim.Pipeline.level_to_string req.level)
                       ~variant:(Usher.Config.variant_name req.variant)
                       ~engine:
                         (Option.fold ~none:"auto" ~some:Vm.Engine.name
                            req.engine)
                       ~knobs_fp:(knobs_fp knobs)
                       ~src:
                         (match req.cmd with
                         | Protocol.Bench ->
                           Printf.sprintf "bench:%s:%d"
                             (Option.value ~default:"" req.bench)
                             req.scale
                         | _ -> Option.value ~default:"" req.source))
              in
              match Option.map (Cache.find t.cache) key |> Option.join with
              | Some e ->
                finish
                  (Protocol.reply ~id:req.id ~output:e.Cache.output
                     ~cached:true
                     (Protocol.status_of_exit_code e.Cache.code))
              | None -> (
                match attempt_request t req ~knobs with
                | Done (code, output, retries) ->
                  Option.iter
                    (fun k -> Cache.store t.cache k { Cache.code; output })
                    key;
                  finish
                    (Protocol.reply ~id:req.id ~output ~retries
                       (Protocol.status_of_exit_code code))
                | Failed (msg, retries) ->
                  Obs.Metrics.incr m_errors;
                  finish
                    (Protocol.reply ~id:req.id ~error:msg ~retries
                       Protocol.Serror)
                | Crashed (msg, retries) ->
                  let error = quarantine_crash t req ~knobs ~msg ~retries in
                  finish
                    (Protocol.reply ~id:req.id ~error ~retries
                       Protocol.Squarantined)))
      with e ->
        (* Reply construction itself failed; a silent drop would breach
           the no-lost-replies contract, so send a bare error. *)
        Obs.Metrics.incr m_errors;
        finish
          (Protocol.reply ~id:req.Protocol.id
             ~error:("internal: " ^ Printexc.to_string e) Protocol.Serror))

(* ---- stats ---- *)

(* The window counters are drained atomically (read-and-zero per cell)
   rather than read and then globally reset: an increment from a worker
   domain racing the snapshot lands in the next window instead of being
   lost between the read and the reset. *)
let stats_fields (t : t) : (string * Json.t) list =
  let num i = Json.Num (float_of_int i) in
  let tracked =
    [
      ("requests", m_requests);
      ("replies", m_replies);
      ("shed", Obs.Metrics.counter "serve.shed");
      ("retries", m_retries);
      ("quarantined", m_quarantined);
      ("errors", m_errors);
      ("cache_hits", Obs.Metrics.counter "serve.cache_hits");
      ("cache_misses", Obs.Metrics.counter "serve.cache_misses");
    ]
  in
  let wins =
    List.map
      (fun (name, c) -> (name, num (Obs.Metrics.counter_take_window c)))
      tracked
  in
  (* Lifetime totals beside the resettable window: a soak client audits
     its own books (sent/replied/shed) against these at the end of a
     burst, which a window that every stats probe drains cannot support. *)
  let totals =
    List.map
      (fun (name, c) -> (name, num (Obs.Metrics.counter_value c)))
      tracked
  in
  [
    ("jobs", num (Usher.Pool.jobs t.pool));
    ("queue_depth", num (Usher.Pool.queued t.pool));
    ("in_flight", num (Usher.Pool.in_flight t.pool));
    ("cache_size", num (Cache.size t.cache));
    ("window", Json.Obj wins);
    ("totals", Json.Obj totals);
  ]

(* ---- intake ---- *)

let handle_request (t : t) ~(sink : sink) (line : string) : unit =
  Obs.Metrics.incr m_requests;
  match Protocol.parse_request line with
  | Error e ->
    (* best-effort id so the client can still match the failure *)
    let id =
      match Json.parse line with
      | Ok j -> Option.value ~default:"" (Option.bind (Json.member "id" j) Json.str)
      | Error _ -> ""
    in
    Obs.Metrics.incr m_errors;
    send t ~sink (Protocol.reply ~id ~error:e Protocol.Serror)
  | Ok req -> (
    match req.Protocol.cmd with
    | Protocol.Ping ->
      send t ~sink
        (Protocol.reply ~id:req.id ~extra:[ ("pong", Json.Bool true) ]
           Protocol.Sok)
    | Protocol.Stats ->
      send t ~sink (Protocol.reply ~id:req.id ~extra:(stats_fields t) Protocol.Sok)
    | _ ->
      if Atomic.get t.draining then
        send t ~sink
          (Protocol.reply ~id:req.id ~error:"server draining"
             Protocol.Soverloaded)
      else begin
        match
          Admission.admit t.adm
            ~queue_depth:(Usher.Pool.queued t.pool)
            ~requested_ms:req.budget_ms
        with
        | Admission.Shed reason ->
          send t ~sink
            (Protocol.reply ~id:req.id ~error:reason Protocol.Soverloaded)
        | Admission.Admit granted_ms ->
          sink.retain ();
          if
            not
              (Usher.Pool.submit t.pool (fun () ->
                   execute t ~sink req ~granted_ms))
          then begin
            sink.release ();
            Admission.release t.adm granted_ms;
            send t ~sink
              (Protocol.reply ~id:req.id ~error:"server stopping"
                 Protocol.Soverloaded)
          end
      end)

let handle_line (t : t) ~(out : string -> unit) (line : string) : unit =
  handle_request t ~sink:(sink_of_writer out) line

(* ---- drain ---- *)

let begin_drain (t : t) : unit = Atomic.set t.draining true
let draining (t : t) : bool = Atomic.get t.draining

(** Stop intake, give in-flight work [drain_ms] to finish, shed whatever
    is still queued, then join the pool. In-flight tasks past the grace
    window are waited out — a domain cannot be killed — but each is
    bounded by its own granted deadline. *)
let drain (t : t) : unit =
  begin_drain t;
  let deadline =
    Obs.Clock.now_s () +. (float_of_int t.cfg.drain_ms /. 1000.)
  in
  let busy () = Usher.Pool.queued t.pool + Usher.Pool.in_flight t.pool > 0 in
  while busy () && Obs.Clock.now_s () < deadline do
    Unix.sleepf 0.01
  done;
  if busy () then Atomic.set t.shed_queued true;
  Usher.Pool.shutdown t.pool

(* ---- transports ---- *)

let writer_of_fd (fd : Unix.file_descr) : string -> unit =
 fun line ->
  let bytes = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length bytes in
  let rec go off =
    if off < len then
      match Unix.write fd bytes off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> () (* client gone; reply dropped *)
  in
  go 0

(* Split complete lines out of [acc], leaving a trailing partial line. *)
let feed_lines (acc : Buffer.t) (handle : string -> unit) : unit =
  let s = Buffer.contents acc in
  Buffer.clear acc;
  let n = String.length s in
  let start = ref 0 in
  (try
     while true do
       let i = String.index_from s !start '\n' in
       let line = String.sub s !start (i - !start) in
       start := i + 1;
       if String.trim line <> "" then handle line
     done
   with Not_found -> ());
  Buffer.add_substring acc s !start (n - !start)

(** Read NDJSON requests from [fd] until EOF or {!begin_drain}; replies
    go through [out]. The 50ms select timeout bounds how long a SIGTERM
    waits to be noticed. *)
let serve_fd (t : t) ~(out : string -> unit) (fd : Unix.file_descr) : unit =
  let sink = sink_of_writer out in
  let buf = Bytes.create 65536 in
  let acc = Buffer.create 4096 in
  (* A final line without a trailing newline is still a complete request
     once EOF proves no more bytes are coming
     (`printf '{"cmd":"ping"}' | usherc serve` gets its reply). *)
  let flush_partial () =
    let rest = Buffer.contents acc in
    Buffer.clear acc;
    if String.trim rest <> "" then handle_request t ~sink rest
  in
  let rec loop () =
    if not (Atomic.get t.draining) then begin
      match Unix.select [ fd ] [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | 0 -> flush_partial () (* EOF: caller drains *)
        | n ->
          Buffer.add_subbytes acc buf 0 n;
          feed_lines acc (handle_request t ~sink);
          loop ())
    end
  in
  loop ()

(* A socket connection, shared between the intake thread and any pool
   workers still owing it replies. The refcount — 1 for intake plus 1
   per in-flight request — gates [Unix.close]: the fd can only close
   once intake is done with it (client EOF, read error, or server
   drain) AND its last admitted reply has been written. A recycled fd
   number therefore can never receive another request's late reply, and
   drain delivers every admitted reply before the fd goes away. *)
type conn = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t; (* partial-line accumulator; intake thread only *)
  c_mu : Mutex.t;
  mutable c_refs : int;
}

let conn_release (c : conn) : unit =
  let close_now =
    Mutex.protect c.c_mu (fun () ->
        c.c_refs <- c.c_refs - 1;
        c.c_refs = 0)
  in
  if close_now then try Unix.close c.c_fd with Unix.Unix_error _ -> ()

let sink_of_conn (c : conn) : sink =
  {
    write = writer_of_fd c.c_fd;
    retain =
      (fun () -> Mutex.protect c.c_mu (fun () -> c.c_refs <- c.c_refs + 1));
    release = (fun () -> conn_release c);
  }

(** Accept connections on a Unix socket at [path]; each connection gets
    NDJSON request/reply framing, replies routed back to its own fd.
    Returns on {!begin_drain} with intake stopped; connection fds stay
    open until each connection's last in-flight reply is written — the
    caller runs {!drain} next, which waits those replies out. *)
let serve_socket (t : t) (path : string) : unit =
  (try Sys.remove path with Sys_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 64;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 8 in
  (* Intake is done with this connection: flush any unterminated final
     line (EOF proves it is complete), then drop intake's reference.
     The fd itself closes when the last reference does. *)
  let forget_conn ?(flush = false) (c : conn) =
    Hashtbl.remove conns c.c_fd;
    if flush then begin
      let rest = Buffer.contents c.c_buf in
      Buffer.clear c.c_buf;
      if String.trim rest <> "" then
        handle_request t ~sink:(sink_of_conn c) rest
    end;
    conn_release c
  in
  let buf = Bytes.create 65536 in
  let rec loop () =
    if not (Atomic.get t.draining) then begin
      let fds = srv :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
      match Unix.select fds [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready, _, _ ->
        List.iter
          (fun fd ->
            if fd = srv then begin
              match Unix.accept srv with
              | conn_fd, _ ->
                Hashtbl.replace conns conn_fd
                  {
                    c_fd = conn_fd;
                    c_buf = Buffer.create 1024;
                    c_mu = Mutex.create ();
                    c_refs = 1;
                  }
              | exception Unix.Unix_error _ -> ()
            end
            else
              match Hashtbl.find_opt conns fd with
              | None -> ()
              | Some c -> (
                match Unix.read fd buf 0 (Bytes.length buf) with
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | exception Unix.Unix_error _ -> forget_conn c
                | 0 -> forget_conn ~flush:true c
                | n ->
                  Buffer.add_subbytes c.c_buf buf 0 n;
                  feed_lines c.c_buf
                    (handle_request t ~sink:(sink_of_conn c))))
          ready;
        loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (* Stop accepting and release intake's reference on every live
         connection; fds with in-flight replies stay open until their
         workers release them during the caller's {!drain}. *)
      (try Unix.close srv with Unix.Unix_error _ -> ());
      (try Sys.remove path with Sys_error _ -> ());
      Hashtbl.iter (fun _ c -> conn_release c) conns;
      Hashtbl.reset conns)
    loop
