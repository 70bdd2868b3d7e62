(* The persistent distrust list.

   One line per quarantined function: "<function> <incident-id>". The
   pipeline (via [Config.knobs.quarantine]) forces full instrumentation
   for every listed function before any analysis runs, so a detected
   soundness bug degrades precision — never correctness — until the
   incident is resolved and the entry removed. The file lives next to the
   incident artifacts in the quarantine directory and is written
   atomically, like them.

   Concurrency: several domains, and several `usherc audit` or `fuzz`
   processes sharing a directory, can quarantine at once. [add] is a read-modify-write, so atomic file
   replacement alone is not enough: two racing adders would each load the
   old list and the second rename would silently drop the first's entry.
   Every mutation therefore runs under a two-level lock: a process-local
   mutex (fcntl record locks do not exclude domains of the same process)
   plus an fcntl lock on a sidecar "quarantine.lock" file for
   cross-process exclusion. Readers stay lock-free — they only ever see
   a complete list, because publication is still rename(2). *)

type entry = { qfunc : string; incident : string }

let list_file (dir : string) : string = Filename.concat dir "quarantine.list"
let lock_file (dir : string) : string = Filename.concat dir "quarantine.lock"

(* One mutex for all directories: quarantine writes are rare (one per
   captured incident), so contention is irrelevant and a per-dir table
   would just add a registry race of its own. *)
let local_mu = Mutex.create ()

let with_lock (dir : string) (f : unit -> 'a) : 'a =
  Mutex.protect local_mu (fun () ->
      Incident.ensure_dir dir;
      let fd =
        Unix.openfile (lock_file dir) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
      in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
          Unix.close fd)
        (fun () ->
          Unix.lockf fd Unix.F_LOCK 0;
          f ()))

(** Entries in [dir]'s list; missing file or directory = empty list. *)
let load (dir : string) : entry list =
  let path = list_file dir in
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let s = really_input_string ic (in_channel_length ic) in
        String.split_on_char '\n' s
        |> List.filter_map (fun line ->
               match String.split_on_char ' ' line with
               | [ f; i ] when f <> "" -> Some { qfunc = f; incident = i }
               | _ -> None))
  end

let save (dir : string) (entries : entry list) : unit =
  Incident.ensure_dir dir;
  let body =
    String.concat ""
      (List.map (fun e -> Printf.sprintf "%s %s\n" e.qfunc e.incident) entries)
  in
  Incident.write_atomic ~path:(list_file dir) body

(** Merge new entries into [dir]'s list (first incident per function
    wins); returns the entries actually added. The whole
    load-merge-save runs under {!with_lock}, so concurrent adders from
    other domains or processes serialize instead of losing updates. *)
let add (dir : string) (entries : entry list) : entry list =
  with_lock dir (fun () ->
      let existing = load dir in
      let known f = List.exists (fun e -> e.qfunc = f) existing in
      let fresh =
        List.fold_left
          (fun acc e ->
            if known e.qfunc || List.exists (fun e' -> e'.qfunc = e.qfunc) acc
            then acc
            else e :: acc)
          [] entries
        |> List.rev
      in
      if fresh <> [] then save dir (existing @ fresh);
      fresh)

(** Knobs with the quarantine list applied (appended to any quarantine
    already present). *)
let apply (entries : entry list) (knobs : Usher.Config.knobs) :
    Usher.Config.knobs =
  {
    knobs with
    Usher.Config.quarantine =
      knobs.Usher.Config.quarantine
      @ List.map (fun e -> (e.qfunc, e.incident)) entries;
  }

(** Convenience: knobs with [dir]'s current list applied. *)
let apply_dir (dir : string) (knobs : Usher.Config.knobs) :
    Usher.Config.knobs =
  apply (load dir) knobs
