(* Aggregated test runner: `dune runtest` executes every suite.
   USHER_PROP_SEED=<n> runs the soundness property on one generator seed,
   dumping any counterexample to /tmp/usher_failing_program.txt. *)
let () =
  match Sys.getenv_opt "USHER_PROP_SEED" with
  | Some s ->
    let ok = Test_properties.soundness_prop (int_of_string s) in
    Printf.printf "seed %s: soundness %b\n" s ok;
    exit (if ok then 0 else 1)
  | None -> ()

let () =
  Alcotest.run "usher"
    (Test_frontend.suites @ Test_ir.suites @ Test_analysis.suites
    @ Test_optim.suites @ Test_memssa.suites @ Test_vfg.suites
    @ Test_instr.suites @ Test_interp.suites @ Test_workloads.suites
    @ Test_opts.suites @ Test_misc.suites @ Test_properties.suites
    @ Test_faults.suites @ Test_audit.suites @ Test_equiv.suites
    @ Test_obs.suites @ Test_verify.suites @ Test_serve.suites
    @ Test_fuzz.suites @ Test_vm.suites @ Test_fork.suites)
