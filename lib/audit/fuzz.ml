(* The generative fuzzing campaign driver.

   Generate [count] TinyC programs from per-index seeds (Gen.campaign_seed:
   a pure function of (root seed, index)), run each through the
   differential oracle once, and from that single report both

   - audit it (Loop.audit_report: capture + dedup-save incidents, ddmin
     misses, propose quarantine entries), and
   - fingerprint it (Fingerprint.of_report) for corpus distillation.

   Programs run one at a time in index order, and the wall-clock budget
   is checked before each one, so two runs of the same campaign that
   finish produce byte-identical incident artifacts, quarantine lists,
   and corpus directories.

   Unlike the corpus audit loop, fresh quarantine entries do NOT feed
   back into later subjects mid-run: every program is judged under the
   same knobs (those in force when the campaign started). *)

type config = {
  count : int;                 (* programs to generate *)
  seed : int;                  (* campaign root seed *)
  size : int;                  (* generator size knob (helpers per program) *)
  budget_ms : int option;      (* wall-clock box for the whole campaign *)
  dir : string;                (* incident + quarantine directory *)
  corpus : string option;      (* distilled-corpus directory *)
  distill : bool;              (* promote novel-coverage programs *)
  hole : string option;        (* test hook: seeded plan-hole prefix *)
  minimize : bool;             (* ddmin-reduce soundness misses *)
  level : Optim.Pipeline.level;
  limits : Runtime.Interp.limits;
  engine : Vm.Engine.t;
  knobs : Usher.Config.knobs;
  log : string -> unit;
}

let default_config =
  {
    count = 100;
    seed = 1;
    size = 3;
    budget_ms = None;
    dir = ".usher-audit";
    corpus = None;
    distill = false;
    hole = None;
    minimize = true;
    level = Optim.Pipeline.O0_IM;
    limits = Loop.default_config.limits;
    engine = Vm.Engine.Interp;
    knobs = Usher.Config.default_knobs;
    log = ignore;
  }

type summary = {
  generated : int;             (* programs generated and checked *)
  audited : int;               (* programs the oracle accepted *)
  skipped : int;               (* native-run traps / compile errors *)
  incidents : Incident.t list; (* newly captured, in index order *)
  soundness_incidents : int;
  precision_incidents : int;
  quarantined : string list;   (* functions newly quarantined *)
  healed : int;
  distilled : int;             (* programs promoted into the corpus *)
  corpus_total : int;          (* corpus size after this run *)
  out_of_time : bool;
  oracle_s : float;            (* summed per-program oracle wall time *)
  elapsed_s : float;
}

(* ---- corpus persistence ---- *)

let features_file dir = Filename.concat dir "corpus.features"

let load_features (dir : string) : (string, unit) Hashtbl.t =
  let seen = Hashtbl.create 64 in
  let path = features_file dir in
  if Sys.file_exists path then begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            let l = String.trim (input_line ic) in
            if l <> "" then Hashtbl.replace seen l ()
          done
        with End_of_file -> ())
  end;
  seen

let save_features (dir : string) (seen : (string, unit) Hashtbl.t) : unit =
  let feats = Hashtbl.fold (fun f () acc -> f :: acc) seen [] in
  let body = String.concat "\n" (List.sort compare feats) ^ "\n" in
  Incident.write_atomic ~path:(features_file dir) body

let corpus_members (dir : string) : string list =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 5
           && String.sub f 0 5 = "fuzz-"
           && Filename.check_suffix f ".c")
    |> List.sort compare

(* ---- promotion into a curated corpus ---- *)

type promotion = {
  p_examined : int;
  p_promoted : int;
  p_redundant : int;
  p_rejected : int;
  p_total : int;
}

let read_member (path : string) : string option =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try Some (really_input_string ic (in_channel_length ic))
        with Sys_error _ | End_of_file -> None)

(* Re-judge every member of [src_dir] against the curated corpus in
   [dst_dir]: the oracle runs once per member (under cfg's
   level/limits/engine/knobs), and a member is copied — stable
   content-digest name, its features merged into dst's corpus.features —
   exactly when its fingerprint contributes a feature the curated corpus
   lacks. Novelty is judged against the curated features, not the source
   campaign's, so promoting two campaign directories in sequence keeps
   only what the second adds. Idempotent: a second run promotes
   nothing. *)
let promote (cfg : config) ~(src_dir : string) ~(dst_dir : string) : promotion
    =
  let loop_cfg =
    {
      Loop.default_config with
      dir = cfg.dir;
      level = cfg.level;
      limits = cfg.limits;
      engine = cfg.engine;
      knobs = cfg.knobs;
      log = cfg.log;
    }
  in
  Incident.ensure_dir dst_dir;
  let seen = load_features dst_dir in
  let promoted = ref 0 and redundant = ref 0 and rejected = ref 0 in
  let members = corpus_members src_dir in
  List.iter
    (fun name ->
      match read_member (Filename.concat src_dir name) with
      | None ->
        incr rejected;
        cfg.log (Printf.sprintf "%s rejected (unreadable)" name)
      | Some src -> (
        match Loop.oracle_check loop_cfg ~knobs:cfg.knobs src with
        | Error e ->
          incr rejected;
          cfg.log (Printf.sprintf "%s rejected (%s)" name e)
        | Ok report ->
          let fp = Fingerprint.of_report report in
          let novel = Fingerprint.novel ~seen fp in
          if novel = [] then incr redundant
          else begin
            Fingerprint.remember ~seen fp;
            let id = String.sub (Digest.to_hex (Digest.string src)) 0 12 in
            let dst = Filename.concat dst_dir (Printf.sprintf "fuzz-%s.c" id) in
            if not (Sys.file_exists dst) then Incident.write_atomic ~path:dst src;
            incr promoted;
            cfg.log
              (Printf.sprintf "%s promoted as %s (novel: %s)" name
                 (Filename.basename dst)
                 (String.concat " " novel))
          end))
    members;
  save_features dst_dir seen;
  {
    p_examined = List.length members;
    p_promoted = !promoted;
    p_redundant = !redundant;
    p_rejected = !rejected;
    p_total = List.length (corpus_members dst_dir);
  }

(* ---- the campaign ---- *)

let m_generated = Obs.Metrics.counter "fuzz.generated"
let m_skipped = Obs.Metrics.counter "fuzz.skipped"
let m_incidents = Obs.Metrics.counter "fuzz.incidents"
let m_distilled = Obs.Metrics.counter "fuzz.distilled"

let run (cfg : config) : summary =
  let t0 = Obs.Clock.now_s () in
  let deadline =
    Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.0)) cfg.budget_ms
  in
  let out_of_time () =
    match deadline with Some d -> Obs.Clock.now_s () > d | None -> false
  in
  (* Existing quarantine applies from the start; entries found mid-run do
     not (see the header comment). *)
  let knobs = Quarantine.apply_dir cfg.dir cfg.knobs in
  let loop_cfg =
    {
      Loop.default_config with
      seed = cfg.seed;
      dir = cfg.dir;
      hole = cfg.hole;
      minimize = cfg.minimize;
      level = cfg.level;
      limits = cfg.limits;
      engine = cfg.engine;
      knobs;
      log = cfg.log;
    }
  in
  let generated = ref 0 and audited = ref 0 and skipped = ref 0 in
  let healed = ref 0 and incidents = ref [] and quarantined = ref [] in
  let oracle_s = ref 0.0 in
  let distilled = ref 0 in
  let seen =
    match cfg.corpus with
    | Some cdir when cfg.distill ->
      Incident.ensure_dir cdir;
      Some (cdir, load_features cdir)
    | _ -> None
  in
  let distill idx src fingerprint =
    match seen with
    | None -> ()
    | Some (cdir, seen) ->
      let novel = Fingerprint.novel ~seen fingerprint in
      if novel <> [] then begin
        Fingerprint.remember ~seen fingerprint;
        let id = String.sub (Digest.to_hex (Digest.string src)) 0 12 in
        let path = Filename.concat cdir (Printf.sprintf "fuzz-%s.c" id) in
        if not (Sys.file_exists path) then begin
          Incident.write_atomic ~path src;
          incr distilled;
          Obs.Metrics.incr m_distilled;
          cfg.log
            (Printf.sprintf "program %d distilled into %s (novel: %s)" idx path
               (String.concat " " novel))
        end
      end
  in
  let stopped = ref false in
  while !generated < cfg.count && not !stopped do
    if out_of_time () then stopped := true
    else begin
      let idx = !generated in
      incr generated;
      Obs.Metrics.incr m_generated;
      let pseed = Gen.campaign_seed ~seed:cfg.seed idx in
      let src = Gen.source ~size:cfg.size ~seed:pseed () in
      let t = Obs.Clock.now_s () in
      match Loop.oracle_check loop_cfg ~knobs src with
      | Error e ->
        incr skipped;
        Obs.Metrics.incr m_skipped;
        cfg.log (Printf.sprintf "program %d skipped (%s)" idx e)
      | Ok report ->
        incr audited;
        oracle_s := !oracle_s +. (Obs.Clock.now_s () -. t);
        let fingerprint = Fingerprint.of_report report in
        let incs, entries, h =
          Loop.audit_report loop_cfg ~knobs ~seed:pseed ~mutation:"" ~src report
        in
        Obs.Metrics.add m_incidents (List.length incs);
        incidents := !incidents @ incs;
        healed := !healed + h;
        let fresh = Quarantine.add cfg.dir entries in
        List.iter
          (fun (e : Quarantine.entry) ->
            quarantined := !quarantined @ [ e.qfunc ])
          fresh;
        distill idx src fingerprint
    end
  done;
  (match seen with
  | Some (cdir, seen) -> save_features cdir seen
  | None -> ());
  let n_sound =
    List.length
      (List.filter
         (fun (i : Incident.t) -> i.kind <> Incident.Precision_regression)
         !incidents)
  in
  {
    generated = !generated;
    audited = !audited;
    skipped = !skipped;
    incidents = !incidents;
    soundness_incidents = n_sound;
    precision_incidents = List.length !incidents - n_sound;
    quarantined = !quarantined;
    healed = !healed;
    distilled = !distilled;
    corpus_total =
      (match cfg.corpus with
      | Some cdir -> List.length (corpus_members cdir)
      | None -> 0);
    out_of_time = !stopped;
    oracle_s = !oracle_s;
    elapsed_s = Obs.Clock.now_s () -. t0;
  }
