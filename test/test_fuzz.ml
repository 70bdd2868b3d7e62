(* Fuzzing subsystem: generator well-formedness, pretty/parse round-trip
   over generated programs, and campaign determinism. *)

open Helpers

(* ---- round-trip: parse (pretty p) = p over the fuzz generator ---- *)

let roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"fuzz-gen pretty/parse round-trip"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = Audit.Gen.program ~seed () in
      let src = Tinyc.Pretty.program_to_string p in
      let p2 = Tinyc.Parser.parse_program src in
      if p <> p2 then
        QCheck.Test.fail_reportf "seed %d does not round-trip:\n%s" seed src
      else true)

(* ---- well-formedness: 500 seeds lower, analyze and interpret ---- *)

let wf_limits =
  { Runtime.Interp.max_steps = 2_000_000; max_objects = 100_000; max_depth = 1_000 }

let test_wellformed_500 () =
  for seed = 0 to 499 do
    let src = Audit.Gen.source ~seed () in
    let prog =
      try front src
      with e ->
        Alcotest.failf "seed %d does not lower (%s):\n%s" seed
          (Printexc.to_string e) src
    in
    let o =
      try Runtime.Interp.run_native ~limits:wf_limits prog
      with e ->
        Alcotest.failf "seed %d does not interpret (%s):\n%s" seed
          (Printexc.to_string e) src
    in
    check_bool "terminates within fuel" true (o.steps <= wf_limits.max_steps)
  done

(* The full pipeline (pointer analysis through plans) accepts generated
   programs too — fewer seeds, it is the expensive half. *)
let test_analyzable () =
  for seed = 500 to 539 do
    let src = Audit.Gen.source ~seed () in
    try ignore (analyze src)
    with e ->
      Alcotest.failf "seed %d does not analyze (%s):\n%s" seed
        (Printexc.to_string e) src
  done

(* Generated programs actually contain ground-truth undefined uses often
   enough to be interesting fuzz inputs. *)
let test_gen_is_interesting () =
  let with_gt = ref 0 in
  for seed = 0 to 99 do
    let o = Runtime.Interp.run_native ~limits:wf_limits (front (Audit.Gen.source ~seed ())) in
    if Runtime.Interp.gt_use_labels o <> [] then incr with_gt
  done;
  check_bool
    (Printf.sprintf "enough seeds read undef values (%d/100)" !with_gt)
    true
    (!with_gt >= 30)

(* ---- determinism ---- *)

let test_gen_deterministic () =
  for seed = 0 to 49 do
    let a = Audit.Gen.program ~seed () in
    let b = Audit.Gen.program ~seed () in
    check_bool "same seed, same AST" true (a = b)
  done;
  (* distinct seeds are not all the same program *)
  let distinct =
    List.init 20 (fun s -> Audit.Gen.source ~seed:s ())
    |> List.sort_uniq compare |> List.length
  in
  check_bool "seeds differ" true (distinct >= 15)

let test_campaign_seed_order_free () =
  (* campaign seeds depend only on (seed, index), and don't collide in
     practice for a realistic campaign *)
  let seeds = List.init 1000 (fun i -> Audit.Gen.campaign_seed ~seed:42 i) in
  check_int "no collisions" 1000 (List.length (List.sort_uniq compare seeds));
  check_bool "pure function of (seed, index)" true
    (Audit.Gen.campaign_seed ~seed:7 123 = Audit.Gen.campaign_seed ~seed:7 123)

(* ---- fingerprints ---- *)

let test_fingerprint () =
  check_int "bucket 0" 0 (Audit.Fingerprint.bucket 0);
  check_int "bucket 1" 1 (Audit.Fingerprint.bucket 1);
  check_int "bucket 2" 2 (Audit.Fingerprint.bucket 2);
  check_int "bucket 7" 3 (Audit.Fingerprint.bucket 7);
  check_int "bucket 8" 4 (Audit.Fingerprint.bucket 8);
  let fp = Audit.Fingerprint.of_report (Audit.Oracle.check (Audit.Gen.source ~seed:3 ())) in
  check_bool "fingerprint is non-empty" true (fp <> []);
  check_bool "fingerprint is sorted and duplicate-free" true
    (fp = List.sort_uniq compare fp);
  let fp2 =
    Audit.Fingerprint.of_report (Audit.Oracle.check (Audit.Gen.source ~seed:3 ()))
  in
  check_bool "fingerprint is a pure function of the program" true (fp = fp2);
  let seen = Hashtbl.create 16 in
  check_bool "everything is novel against an empty corpus" true
    (Audit.Fingerprint.novel ~seen fp = fp);
  Audit.Fingerprint.remember ~seen fp;
  check_bool "nothing is novel the second time" true
    (Audit.Fingerprint.novel ~seen fp = [])

(* ---- incident dedup ---- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let scratch name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "usher-test-%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  dir

let test_incident_dedup () =
  let dir = scratch "dedup" in
  let mk seed =
    Audit.Incident.make ~kind:Audit.Incident.Soundness_miss ~variant:"Usher"
      ~seed ~mutation:"" ~functions:[ "f" ] ~labels:[ 3 ] ~knobs:""
      ~source:"int main() { return 0; }\n" ()
  in
  (* the id is derived from the canonical repro, not the seed that
     reached it: the same hole found twice merges into one artifact *)
  let a = mk 2 and b = mk 1 in
  check_str "same canonical program, same id" a.Audit.Incident.id
    b.Audit.Incident.id;
  let p1 = Audit.Incident.save ~dir a in
  let p2 = Audit.Incident.save ~dir b in
  check_str "one file, not two" p1 p2;
  (match Audit.Incident.load p1 with
  | Ok t ->
    check_int "hits accumulate" 2 t.Audit.Incident.hits;
    (* merge keeps the smallest evidence regardless of save order *)
    check_int "evidence is the smallest (seed, source)" 1 t.Audit.Incident.seed
  | Error e -> Alcotest.fail e);
  rm_rf dir

let test_incident_pre_hits_format () =
  (* artifacts written before the hits counter existed have no "hits"
     line; they must still load (checksum intact) and count as one hit *)
  let payload =
    "id deadbeef4321\nkind soundness-miss\nvariant Usher\nseed 4\n\
     mutation \nfunctions f\nlabels 3\nknobs \nsource 10\nabcdefghij\n\
     reduced -\n"
  in
  let s =
    Printf.sprintf "usher-incident 1\nchecksum %s\n%s"
      (Digest.to_hex (Digest.string payload))
      payload
  in
  match Audit.Incident.of_string s with
  | Ok t ->
    check_int "defaults to one hit" 1 t.Audit.Incident.hits;
    check_str "source survives" "abcdefghij" t.Audit.Incident.source
  | Error e -> Alcotest.failf "pre-hits artifact rejected: %s" e


(* ---- campaigns end to end ---- *)

(* Every file of [dir] but the lock sidecar, with its contents. *)
let dir_contents dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> f <> "quarantine.lock")
  |> List.sort compare
  |> List.map (fun f ->
         (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

(* usherc fuzz --seed 5 --count 40 --inject-hole fz --corpus C --distill *)
let hole_campaign name =
  let dir = scratch (name ^ "-dir") and corpus = scratch (name ^ "-corpus") in
  let s =
    Audit.Fuzz.run
      { Audit.Fuzz.default_config with
        campaign =
          { Audit.Loop.default_config with seed = 5; hole = Some "fz"; dir };
        count = 40; corpus = Some corpus; distill = true }
  in
  (s, dir, corpus)

let test_campaign_replays () =
  let s, dir1, corpus1 = hole_campaign "replay-a" in
  let _, dir2, corpus2 = hole_campaign "replay-b" in
  check_bool "the seeded hole is caught" true (s.soundness_incidents > 0);
  check_bool "something is quarantined" true
    (Sys.file_exists (Filename.concat dir1 "quarantine.list"));
  check_bool "something is distilled" true (s.distilled > 0);
  check_bool "identical incidents and quarantine.list" true
    (dir_contents dir1 = dir_contents dir2);
  check_bool "identical distilled corpus" true
    (dir_contents corpus1 = dir_contents corpus2);
  List.iter rm_rf [ dir1; dir2; corpus2 ];
  (* Promotion of that corpus into an empty one copies something, and a
     second promotion copies nothing. *)
  let curated = scratch "curated" in
  let promote () =
    Audit.Fuzz.promote Audit.Loop.default_config ~src_dir:corpus1
      ~dst_dir:curated
  in
  let p1 = promote () in
  check_bool "first promotion copies members" true (p1.p_promoted >= 1);
  check_int "every member is judged" p1.p_examined
    (p1.p_promoted + p1.p_redundant + p1.p_rejected);
  let p2 = promote () in
  check_int "second promotion copies nothing" 0 p2.p_promoted;
  check_int "the curated corpus is unchanged" p1.p_total p2.p_total;
  List.iter rm_rf [ corpus1; curated ]

let suites =
  [
    ( "fuzz-gen",
      [
        QCheck_alcotest.to_alcotest roundtrip_prop;
        tc "500-seed well-formedness" test_wellformed_500;
        tc "generated programs analyze" test_analyzable;
        tc "generated programs read undef" test_gen_is_interesting;
        tc "generator is deterministic" test_gen_deterministic;
        tc "campaign seeds are order-free" test_campaign_seed_order_free;
      ] );
    ( "fuzz-run",
      [
        tc "coverage fingerprints" test_fingerprint;
        tc "incidents dedup by checksum" test_incident_dedup;
        tc "pre-hits artifacts still load" test_incident_pre_hits_format;
      ] );
    ( "audit.campaign",
      [ tc "holed campaign replays; its corpus promotes once"
          test_campaign_replays ] );
  ]
