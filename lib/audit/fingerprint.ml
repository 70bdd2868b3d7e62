(* Cheap per-program coverage fingerprints for corpus distillation.

   A fingerprint is a small sorted set of feature strings summarizing
   what one oracle run *exercised*: how many ground-truth undefined uses
   the program produced, which detection classes each variant hit, which
   divergence kinds appeared, which degradation rungs fired, which VFG
   edge kinds the analysis built, and how much Γ state the resolver
   explored. Counts are log2-bucketed so "a few" and "a lot" are
   distinct features but 17 vs 18 is not.

   The fuzz driver keeps the union of all features seen so far; a
   generated program is promoted into the persisted corpus exactly when
   it contributes a feature no earlier program did. *)

let bucket (n : int) : int =
  if n <= 0 then 0
  else
    let rec go b n = if n = 0 then b else go (b + 1) (n lsr 1) in
    go 0 n

let degrade_kind_name = function
  | Usher.Degrade.Fault -> "fault"
  | Usher.Degrade.Quarantined _ -> "quarantined"
  | Usher.Degrade.Unverified _ -> "unverified"

let of_report (r : Oracle.report) : string list =
  let feats = ref [] in
  let add f = feats := f :: !feats in
  let addf fmt = Printf.ksprintf add fmt in
  (* ground-truth undefined uses in the native run *)
  addf "gt:%d" (bucket (List.length (Runtime.Interp.gt_use_labels r.native)));
  (* per-variant detection classes *)
  List.iter
    (fun (v, (o : Runtime.Interp.outcome)) ->
      let name = Usher.Config.variant_name v in
      addf "det:%s:%d" name
        (bucket (List.length (Runtime.Interp.detection_labels o))))
    r.per_variant;
  (* divergence kinds *)
  List.iter
    (fun d ->
      match (d : Oracle.divergence) with
      | Oracle.Miss m -> addf "miss:%s" (Usher.Config.variant_name m.mvariant)
      | Oracle.Behavior b ->
        addf "div:behavior:%s" (Usher.Config.variant_name b.bvariant)
      | Oracle.Precision p ->
        addf "div:precision:%s" (Usher.Config.variant_name p.pvariant))
    r.divergences;
  (* degradation rungs that fired *)
  List.iter
    (fun (e : Usher.Degrade.event) ->
      addf "degrade:%s:%s" (Diag.phase_name e.phase) (degrade_kind_name e.kind))
    !(r.analysis.events);
  (* VFG shape: which edge kinds exist, node-count bucket *)
  let g = r.analysis.vfg.graph in
  addf "vfg:nodes:%d" (bucket (Vfg.Graph.nnodes g));
  let intra = ref false and call = ref false and ret = ref false in
  for n = 0 to Vfg.Graph.nnodes g - 1 do
    Vfg.Graph.iter_succs g n (fun _ k ->
        if Vfg.Graph.is_intra k then intra := true
        else if Vfg.Graph.is_call k then call := true
        else ret := true)
  done;
  if !intra then add "vfg:edge:intra";
  if !call then add "vfg:edge:call";
  if !ret then add "vfg:edge:ret";
  (* Γ resolution effort and outcome *)
  let gamma = r.analysis.gamma in
  addf "gamma:undef:%d" (bucket (Vfg.Resolve.undef_count gamma));
  addf "gamma:states:%d" (bucket gamma.states_explored);
  List.sort_uniq compare !feats

(** Features of [t] absent from [seen]. *)
let novel ~(seen : (string, unit) Hashtbl.t) (t : string list) : string list =
  List.filter (fun f -> not (Hashtbl.mem seen f)) t

let remember ~(seen : (string, unit) Hashtbl.t) (t : string list) : unit =
  List.iter (fun f -> Hashtbl.replace seen f ()) t
