(* The generative fuzzing campaign driver.

   Generate [count] TinyC programs from per-index seeds (Gen.campaign_seed:
   a pure function of (root seed, index)) and run them through
   Loop.campaign, which runs each through the differential oracle once
   and from that single report both

   - audits it (capture + dedup-save incidents, ddmin misses, propose
     quarantine entries), and
   - distils it: its coverage fingerprint (Fingerprint.of_report) decides
     whether it joins the corpus.

   Programs run one at a time in index order, and the wall-clock budget
   is checked before each one, so two runs of the same campaign that
   finish produce byte-identical incident artifacts, quarantine lists,
   and corpus directories.

   Unlike the corpus audit, fresh quarantine entries do NOT feed back
   into later subjects mid-run: generated helpers share names (fz8)
   across programs, so every program is judged under the same knobs
   (those in force when the campaign started). *)

type config = {
  campaign : Loop.config;      (* the settings every campaign shares *)
  count : int;                 (* programs to generate *)
  size : int;                  (* generator size knob (helpers per program) *)
  corpus : string option;      (* distilled-corpus directory *)
  distill : bool;              (* promote novel-coverage programs *)
}

let default_config =
  {
    campaign = Loop.default_config;
    count = 100;
    size = 3;
    corpus = None;
    distill = false;
  }

(* ---- corpus persistence ---- *)

(* A corpus directory: fuzz-<digest>.c members and, in corpus.features,
   every feature they cover. *)
type corpus = { cdir : string; seen : (string, unit) Hashtbl.t }

let features_file dir = Filename.concat dir "corpus.features"

let open_corpus (cdir : string) : corpus =
  Incident.ensure_dir cdir;
  let seen = Hashtbl.create 64 in
  let path = features_file cdir in
  if Sys.file_exists path then
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.iter (fun l ->
           let l = String.trim l in
           if l <> "" then Hashtbl.replace seen l ());
  { cdir; seen }

let save_features (c : corpus) : unit =
  let feats = Hashtbl.fold (fun f () acc -> f :: acc) c.seen [] in
  let body = String.concat "\n" (List.sort compare feats) ^ "\n" in
  Incident.write_atomic ~path:(features_file c.cdir) body

let corpus_members (dir : string) : string list =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 5
           && String.sub f 0 5 = "fuzz-"
           && Filename.check_suffix f ".c")
    |> List.sort compare

(* Distillation, the one way a program enters a corpus: when its
   fingerprint adds a feature the corpus lacks, remember the features and
   write the program atomically under its content-digest name unless that
   file exists. Returns the novel features, the path and whether the file
   is new. *)
let distil (c : corpus) (src : string) (report : Oracle.report) :
    (string list * string * bool) option =
  let fingerprint = Fingerprint.of_report report in
  match Fingerprint.novel ~seen:c.seen fingerprint with
  | [] -> None
  | novel ->
    Fingerprint.remember ~seen:c.seen fingerprint;
    let id = String.sub (Digest.to_hex (Digest.string src)) 0 12 in
    let path = Filename.concat c.cdir (Printf.sprintf "fuzz-%s.c" id) in
    let fresh = not (Sys.file_exists path) in
    if fresh then Incident.write_atomic ~path src;
    Some (novel, path, fresh)

(* ---- promotion into a curated corpus ---- *)

type promotion = {
  p_examined : int;
  p_promoted : int;
  p_redundant : int;
  p_rejected : int;
  p_total : int;
}

(* Re-judge every member of [src_dir] against the curated corpus in
   [dst_dir]: the oracle runs once per member, and a member is copied
   exactly when its fingerprint contributes a feature the curated corpus
   lacks. Novelty is judged against the curated features, not the source
   campaign's, so promoting two campaign directories in sequence keeps
   only what the second adds. Idempotent: a second run promotes
   nothing. *)
let promote (cfg : Loop.config) ~(src_dir : string) ~(dst_dir : string) :
    promotion =
  let curated = open_corpus dst_dir in
  let member name () =
    let src =
      try Ok (In_channel.with_open_bin (Filename.concat src_dir name)
                In_channel.input_all)
      with Sys_error _ -> Error "unreadable"
    in
    { Loop.name; seed = 0; mutation = ""; src }
  in
  let promoted (s : Loop.subject) src report =
    match distil curated src report with
    | None -> false
    | Some (novel, path, _) ->
      cfg.log
        (Printf.sprintf "%s promoted as %s (novel: %s)" s.name
           (Filename.basename path) (String.concat " " novel));
      true
  in
  (* Members are judged as they are: under [cfg.knobs] alone, with no
     test hole and no campaign budget. *)
  let s =
    Loop.campaign { cfg with hole = None; budget_ms = None } Loop.Judge
      ~refused:(fun s e -> Printf.sprintf "%s rejected (%s)" s.name e)
      ~distil:promoted
      (Seq.map member (List.to_seq (corpus_members src_dir)))
  in
  save_features curated;
  {
    p_examined = s.subjects;
    p_promoted = s.distilled;
    p_redundant = s.audited - s.distilled;
    p_rejected = s.skipped;
    p_total = List.length (corpus_members dst_dir);
  }

(* ---- the campaign ---- *)

let m_generated = Obs.Metrics.counter "fuzz.generated"
let m_skipped = Obs.Metrics.counter "fuzz.skipped"
let m_incidents = Obs.Metrics.counter "fuzz.incidents"
let m_distilled = Obs.Metrics.counter "fuzz.distilled"

let run (cfg : config) : Loop.summary =
  let log = cfg.campaign.log in
  let corpus =
    match cfg.corpus with
    | Some cdir when cfg.distill -> Some (open_corpus cdir)
    | _ -> None
  in
  let distilled c (s : Loop.subject) src report =
    match distil c src report with
    | Some (novel, path, true) ->
      log
        (Printf.sprintf "%s distilled into %s (novel: %s)" s.name path
           (String.concat " " novel));
      true
    | _ -> false
  in
  let program idx () =
    let seed = Gen.campaign_seed ~seed:cfg.campaign.seed idx in
    { Loop.name = Printf.sprintf "program %d" idx; seed; mutation = "";
      src = Ok (Gen.source ~size:cfg.size ~seed ()) }
  in
  let s =
    Loop.campaign cfg.campaign (Loop.Audit { feedback = false })
      ~refused:(fun s e -> Printf.sprintf "%s skipped (%s)" s.name e)
      ?distil:(Option.map distilled corpus)
      (Seq.init (max 0 cfg.count) program)
  in
  Option.iter save_features corpus;
  Obs.Metrics.add m_generated s.subjects;
  Obs.Metrics.add m_skipped s.skipped;
  Obs.Metrics.add m_incidents (List.length s.incidents);
  Obs.Metrics.add m_distilled s.distilled;
  s
