(* Fault injection at phase boundaries.

   The degradation ladder is only trustworthy if it is exercised; these
   hooks let tests and the CLI make any phase crash or exhaust its budget
   on demand. A fault spec names a phase, optionally one function (for
   phases with per-function isolation), and how the failure manifests. *)

let all_phases =
  [
    Diag.Lex; Diag.Parse; Diag.Lower; Diag.Ir; Diag.Optim; Diag.Andersen;
    Diag.Callgraph; Diag.Modref; Diag.Memssa; Diag.Vfg_build; Diag.Resolve;
    Diag.Opt2; Diag.Instrument; Diag.Interp; Diag.Audit; Diag.Verify;
    Diag.Driver;
  ]

let phase_of_string (s : string) : Diag.phase option =
  let s = String.lowercase_ascii s in
  List.find_opt (fun p -> String.lowercase_ascii (Diag.phase_name p) = s) all_phases

(* Raise the configured failure if a fault targets this point. [func] is
   [None] at a phase boundary, [Some f] inside a per-function loop. *)
let check (knobs : Config.knobs) (phase : Diag.phase) (func : string option) :
    unit =
  List.iter
    (fun (f : Config.fault) ->
      let hit =
        f.fphase = phase
        &&
        match (f.ffunc, func) with
        | None, None -> true
        | Some a, Some b -> a = b
        | None, Some _ | Some _, None -> false
      in
      if hit then
        match f.fkind with
        | Config.Crash -> Diag.error phase "injected fault"
        | Config.Exhaust ->
          raise
            (Diag.Budget.Exhausted { phase; limit = 0 })
        | Config.Corrupt _ -> ()
        (* corruptions fire after the phase, via [apply_corruptions] *))
    knobs.inject

(* Parse a CLI fault spec:
   PHASE[:FUNC][=crash|exhaust|pts-bitflip|drop-vfg-edge|gamma-flip]. *)
let of_spec (s : string) : (Config.fault, string) result =
  let body, fkind =
    match String.index_opt s '=' with
    | None -> (s, Ok Config.Crash)
    | Some i ->
      let k = String.sub s (i + 1) (String.length s - i - 1) in
      ( String.sub s 0 i,
        match String.lowercase_ascii k with
        | "crash" -> Ok Config.Crash
        | "exhaust" -> Ok Config.Exhaust
        | "pts-bitflip" -> Ok (Config.Corrupt Config.Pts_bitflip)
        | "drop-vfg-edge" -> Ok (Config.Corrupt Config.Drop_vfg_edge)
        | "gamma-flip" -> Ok (Config.Corrupt Config.Gamma_flip)
        | _ -> Error (Printf.sprintf "unknown fault kind %S" k) )
  in
  let phase_s, ffunc =
    match String.index_opt body ':' with
    | None -> (body, None)
    | Some i ->
      ( String.sub body 0 i,
        Some (String.sub body (i + 1) (String.length body - i - 1)) )
  in
  match (fkind, phase_of_string phase_s) with
  | Error e, _ -> Error e
  | Ok _, None -> Error (Printf.sprintf "unknown phase %S" phase_s)
  | Ok fkind, Some fphase -> Ok { Config.fphase; ffunc; fkind }

let to_string (f : Config.fault) : string =
  Printf.sprintf "%s%s=%s"
    (Diag.phase_name f.Config.fphase)
    (match f.Config.ffunc with Some fn -> ":" ^ fn | None -> "")
    (match f.Config.fkind with
    | Config.Crash -> "crash"
    | Config.Exhaust -> "exhaust"
    | Config.Corrupt Config.Pts_bitflip -> "pts-bitflip"
    | Config.Corrupt Config.Drop_vfg_edge -> "drop-vfg-edge"
    | Config.Corrupt Config.Gamma_flip -> "gamma-flip")

(* ---------------- seeded analyzer corruption ---------------- *)

(* The corruptions below damage a finished artifact in the fact-DROPPING
   direction — the unsound one the certifying checkers guarantee to catch
   (added facts are mere over-approximation). Each picks its victim
   deterministically (first eligible in index order) so CI failures
   reproduce. *)

let m_corruptions = Obs.Metrics.counter "fault.corruptions"

let wants (knobs : Config.knobs) phase c =
  List.exists
    (fun (f : Config.fault) ->
      f.fphase = phase && f.fkind = Config.Corrupt c)
    knobs.inject

(* Clear the lowest set bit of the first representative node with a
   nonempty points-to set, and drop the lazy per-node views so readers see
   the damaged words. Returns a description when a bit was flipped. *)
let corrupt_pts (pa : Analysis.Andersen.t) : string option =
  let module A = Analysis.Andersen in
  let nnodes =
    if pa.A.wpn = 0 then 0 else Array.length pa.A.pts_words / pa.A.wpn
  in
  let found = ref None in
  (try
     for n = 0 to nnodes - 1 do
       if pa.A.repr.(n) = n then
         for w = 0 to pa.A.wpn - 1 do
           let word = pa.A.pts_words.((n * pa.A.wpn) + w) in
           if word <> 0 then begin
             let bit = word land -word in
             pa.A.pts_words.((n * pa.A.wpn) + w) <- word lxor bit;
             found := Some (Printf.sprintf "node %d word %d" n w);
             raise Exit
           end
         done
     done
   with Exit -> ());
  Array.fill pa.A.pts_cache 0 (Array.length pa.A.pts_cache) None;
  if !found <> None then Obs.Metrics.incr m_corruptions;
  !found

(* Remove the first edge (lowest source node id, first succ entry). *)
let corrupt_vfg (g : Vfg.Graph.t) : string option =
  let found = ref None in
  (try
     for src = 0 to Vfg.Graph.nnodes g - 1 do
       Vfg.Graph.iter_succs g src (fun dst k ->
           Vfg.Graph.remove_edge g ~src ~dst k;
           found := Some (Printf.sprintf "edge %d -> %d" src dst);
           raise Exit)
     done
   with Exit -> ());
  if !found <> None then Obs.Metrics.incr m_corruptions;
  !found

(* Flip the first ⊥ entry of Γ to ⊤ — claiming a possibly-undefined value
   is defined, the unsound direction. The scan starts past the two root
   ids (interned first by the builder) so the flip lands on a program
   node rather than trivially on the F root itself. *)
let corrupt_gamma (gm : Vfg.Resolve.gamma) : string option =
  let undef = gm.Vfg.Resolve.undef in
  let n = Bytes.length undef in
  let found = ref None in
  let flip id =
    if !found = None && Bytes.get undef id <> '\000' then begin
      Bytes.set undef id '\000';
      found := Some (Printf.sprintf "node %d" id)
    end
  in
  for id = 2 to n - 1 do
    flip id
  done;
  for id = 0 to min 1 (n - 1) do
    flip id
  done;
  if !found <> None then Obs.Metrics.incr m_corruptions;
  !found
