(* Incident artifacts: the sentinel's durable evidence.

   Every divergence the oracle finds becomes one self-contained file in
   the quarantine directory: the full program source, the seed and
   mutation that produced it, the diverging variant, the implicated
   functions and labels, the knob configuration, and (after reduction)
   the minimized repro. The payload is protected by an MD5 checksum so a
   truncated or bit-rotted artifact is rejected at load instead of
   silently replaying garbage, and files are written atomically
   (temp + rename) so a crashed audit run never leaves a half-written
   incident behind. *)

type kind =
  | Soundness_miss
  | Precision_regression
  | Behavior_divergence
  | Static_violation

let kind_name = function
  | Soundness_miss -> "soundness-miss"
  | Precision_regression -> "precision-regression"
  | Behavior_divergence -> "behavior-divergence"
  | Static_violation -> "static-violation"

let kind_of_name = function
  | "soundness-miss" -> Some Soundness_miss
  | "precision-regression" -> Some Precision_regression
  | "behavior-divergence" -> Some Behavior_divergence
  | "static-violation" -> Some Static_violation
  | _ -> None

type t = {
  id : string;               (* content-derived, stable *)
  kind : kind;
  variant : string;          (* diverging variant's name *)
  seed : int;                (* corpus / fuzzing seed *)
  mutation : string;         (* mutation description; "" for base programs *)
  functions : string list;   (* implicated functions *)
  labels : int list;         (* diverging labels *)
  knobs : string;            (* rendered knob summary *)
  source : string;           (* the full diverging program *)
  reduced : string option;   (* ddmin-minimized repro *)
  hits : int;                (* times this same hole was hit (dedup counter) *)
}

let magic = "usher-incident 1"

(* A single-line field value: newlines would corrupt the framing. *)
let clean_line (s : string) : string =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let make ~kind ~variant ~seed ~mutation ~functions ~labels ~knobs ~source
    ?reduced () : t =
  (* The id is derived from the *canonical* repro — the ddmin-reduced
     program when reduction ran, the full source otherwise — never from
     the seed or mutation that happened to reach it. A fuzz campaign
     hitting the same hole from 50 different seeds therefore produces 50
     incidents with one id, which [save] collapses into a single artifact
     with an accumulated hit counter. *)
  let canonical = match reduced with Some r -> r | None -> source in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00" [ kind_name kind; variant; canonical ]))
  in
  {
    id = String.sub digest 0 12;
    kind;
    variant;
    seed;
    mutation = clean_line mutation;
    functions;
    labels;
    knobs = clean_line knobs;
    source;
    reduced;
    hits = 1;
  }

(* ---- serialization ---- *)

let payload (t : t) : string =
  let b = Buffer.create (String.length t.source + 512) in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "id %s\n" t.id;
  pf "kind %s\n" (kind_name t.kind);
  pf "variant %s\n" (clean_line t.variant);
  pf "seed %d\n" t.seed;
  pf "mutation %s\n" t.mutation;
  pf "functions %s\n" (String.concat " " t.functions);
  pf "labels %s\n" (String.concat " " (List.map string_of_int t.labels));
  pf "knobs %s\n" t.knobs;
  pf "hits %d\n" t.hits;
  pf "source %d\n" (String.length t.source);
  Buffer.add_string b t.source;
  (match t.reduced with
  | None -> pf "\nreduced -\n"
  | Some r ->
    pf "\nreduced %d\n" (String.length r);
    Buffer.add_string b r;
    Buffer.add_char b '\n');
  Buffer.contents b

let to_string (t : t) : string =
  let p = payload t in
  Printf.sprintf "%s\nchecksum %s\n%s" magic (Digest.to_hex (Digest.string p)) p

(* ---- parsing ---- *)

let of_string (s : string) : (t, string) result =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  (* Cursor-based line reader. *)
  let pos = ref 0 in
  let len = String.length s in
  let line () =
    if !pos >= len then None
    else
      match String.index_from_opt s !pos '\n' with
      | None ->
        let l = String.sub s !pos (len - !pos) in
        pos := len;
        Some l
      | Some i ->
        let l = String.sub s !pos (i - !pos) in
        pos := i + 1;
        Some l
  in
  let take n =
    if !pos + n > len then None
    else begin
      let b = String.sub s !pos n in
      pos := !pos + n;
      Some b
    end
  in
  match line () with
  | Some m when m = magic -> (
    match line () with
    | Some cks when String.length cks > 9 && String.sub cks 0 9 = "checksum " -> (
      let declared = String.sub cks 9 (String.length cks - 9) in
      let body = String.sub s !pos (len - !pos) in
      if Digest.to_hex (Digest.string body) <> declared then
        err "checksum mismatch: artifact is corrupted"
      else begin
        (* Checksum verified; parse the fields. *)
        let fields = Hashtbl.create 8 in
        let field l =
          match String.index_opt l ' ' with
          | None -> (l, "")
          | Some i ->
            (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
        in
        let rec scalar_fields () =
          match line () with
          | None -> Error "truncated artifact: missing source block"
          | Some l -> (
            let k, v = field l in
            if k = "source" then
              match int_of_string_opt v with
              | None -> err "bad source length %S" v
              | Some n -> (
                match take n with
                | None -> Error "truncated source block"
                | Some src -> Ok src)
            else begin
              Hashtbl.replace fields k v;
              scalar_fields ()
            end)
        in
        match scalar_fields () with
        | Error e -> Error e
        | Ok source -> (
          let reduced =
            (* skip the newline after the source block *)
            match line () with
            | Some "" | None -> None
            | Some l -> (
              match field l with
              | "reduced", "-" -> None
              | "reduced", v -> (
                match int_of_string_opt v with
                | None -> None
                | Some n -> take n)
              | _ -> None)
          in
          let reduced =
            match reduced with
            | None -> (
              (* the blank line before "reduced" was consumed as "" above;
                 try once more *)
              match line () with
              | Some l -> (
                match field l with
                | "reduced", "-" -> None
                | "reduced", v -> (
                  match int_of_string_opt v with
                  | None -> None
                  | Some n -> take n)
                | _ -> None)
              | None -> None)
            | some -> some
          in
          let get k = match Hashtbl.find_opt fields k with Some v -> v | None -> "" in
          let words v =
            String.split_on_char ' ' v |> List.filter (fun w -> w <> "")
          in
          match kind_of_name (get "kind") with
          | None -> err "unknown incident kind %S" (get "kind")
          | Some kind ->
            Ok
              {
                id = get "id";
                kind;
                variant = get "variant";
                seed = (match int_of_string_opt (get "seed") with Some n -> n | None -> 0);
                mutation = get "mutation";
                functions = words (get "functions");
                labels = List.filter_map int_of_string_opt (words (get "labels"));
                knobs = get "knobs";
                source;
                reduced;
                (* absent in artifacts written before the dedup counter
                   existed: they count as one hit *)
                hits =
                  (match int_of_string_opt (get "hits") with
                  | Some n when n >= 1 -> n
                  | _ -> 1);
              })
      end)
    | _ -> Error "missing checksum line")
  | _ -> err "not an incident artifact (bad magic)"

(* ---- filesystem ---- *)

let rec ensure_dir (dir : string) : unit =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir && parent <> "." then ensure_dir parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Atomic write: the artifact appears fully written or not at all. The
   temp name must be unique per writer — campaigns sharing a directory
   write the same paths concurrently, and two writers sharing one fixed
   ".tmp" can interleave (A opens, B opens and truncates, A renames B's
   half-written bytes into place). PID + a process-wide ticket keeps
   domains and processes apart; rename stays the only visible step. *)
let tmp_ticket = Atomic.make 0

let write_atomic ~(path : string) (contents : string) : unit =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_ticket 1)
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents);
  Sys.rename tmp path

let filename (t : t) : string =
  Printf.sprintf "incident-%s-%s.txt" (kind_name t.kind) t.id

(* Forward declaration break: [save] needs [load] for the dedup merge. *)
let load_file (path : string) : (t, string) result =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | exception Sys_error m -> Error m
        | s -> of_string s)

(* Serializes read-modify-write of the hit counter across domains; the
   write itself stays atomic (temp + rename), so a concurrent *process*
   at worst loses a count increment, never corrupts the artifact. *)
let save_lock = Mutex.create ()

(** Write the artifact into [dir] (created if missing); returns its path.
    An artifact with the same content id is merged, not duplicated: the
    first occurrence's evidence is kept and its hit counter absorbs the
    new one's. *)
let save ~(dir : string) (t : t) : string =
  ensure_dir dir;
  let path = Filename.concat dir (filename t) in
  Mutex.lock save_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock save_lock)
    (fun () ->
      let merged =
        match load_file path with
        | Ok prev when prev.id = t.id ->
          (* Deterministic evidence choice (lowest seed, then source) so
             the merged artifact is identical whatever order concurrent
             fuzz workers hit the hole in; the counter is a plain sum, so
             the end state is order-independent too. *)
          let keep =
            if (t.seed, t.source) < (prev.seed, prev.source) then t else prev
          in
          { keep with hits = prev.hits + t.hits }
        | Ok _ | Error _ -> t
      in
      write_atomic ~path (to_string merged));
  path

let load = load_file

(** All well-formed incidents in [dir] (sorted by file name); corrupted
    artifacts are returned separately as (path, error). *)
let load_dir (dir : string) : t list * (string * string) list =
  if not (Sys.file_exists dir) then ([], [])
  else begin
    (* Only finished artifacts: a ".tmp.<pid>.<n>" left behind by a
       kill -9 mid-write must not be parsed (or reported as corrupt) on
       restart — it was never published. *)
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 9
             && String.sub f 0 9 = "incident-"
             && Filename.check_suffix f ".txt")
      |> List.sort compare
    in
    List.fold_left
      (fun (ok, bad) f ->
        let path = Filename.concat dir f in
        match load path with
        | Ok t -> (t :: ok, bad)
        | Error e -> (ok, (path, e) :: bad))
      ([], []) files
    |> fun (ok, bad) -> (List.rev ok, List.rev bad)
  end
