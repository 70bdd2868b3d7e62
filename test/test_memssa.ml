(* Memory SSA: mu/chi annotation, versions, memory phis, virtual
   parameters. The shapes follow the paper's Fig. 4/5. *)

open Helpers

let build src =
  let prog = front src in
  let pa = Analysis.Andersen.run prog in
  let cg = Analysis.Callgraph.build prog pa in
  let mr = Analysis.Modref.compute prog pa cg in
  (prog, pa, Memssa.build prog pa cg mr)

let loc_named (pa : Analysis.Andersen.t) mssa fname name =
  let fs = Memssa.func_ssa mssa fname in
  List.find_opt
    (fun l -> Analysis.Objects.loc_name pa.objects l = name)
    fs.Memssa.tracked

let tests =
  [
    tc "loads carry mu, stores carry chi" (fun () ->
        let prog, _, mssa = build
            "int main() { int x; int *p = &x; *p = 1; return *p; }" in
        let store = find_instr (function Ir.Types.Store _ -> true | _ -> false) prog in
        let load = find_instr (function Ir.Types.Load _ -> true | _ -> false) prog in
        (match store with
        | Some (_, i) -> check_int "chi" 1 (List.length (Memssa.chi_at mssa i.lbl))
        | None -> Alcotest.fail "no store");
        match load with
        | Some (_, i) -> check_int "mu" 1 (List.length (Memssa.mu_at mssa i.lbl))
        | None -> Alcotest.fail "no load");
    tc "chi versions increase along straight-line code" (fun () ->
        let prog, _, mssa = build
            "int main() { int x; int *p = &x; *p = 1; *p = 2; return *p; }" in
        let chis = ref [] in
        Ir.Prog.iter_instrs
          (fun _ _ i ->
            match i.Ir.Types.kind with
            | Ir.Types.Store _ -> chis := Memssa.chi_at mssa i.lbl @ !chis
            | _ -> ())
          prog;
        (match List.sort compare (List.map (fun (_, nv, _) -> nv) !chis) with
        | [ v1; v2 ] -> check_bool "distinct versions" true (v1 <> v2)
        | _ -> Alcotest.fail "expected two chis");
        (* the load must use the latest version *)
        match find_instr (function Ir.Types.Load _ -> true | _ -> false) prog with
        | Some (_, i) -> (
          match Memssa.mu_at mssa i.lbl with
          | [ (_, v) ] ->
            let max_chi = List.fold_left (fun a (_, nv, _) -> max a nv) 0 !chis in
            check_int "load sees last store" max_chi v
          | _ -> Alcotest.fail "expected one mu")
        | None -> Alcotest.fail "no load");
    tc "Fig. 5: memory phi at the join" (fun () ->
        let _, pa, mssa = build
            "void foo(int *q) { int x = *q; if (x) { } else { *q = x + 10; } }\n\
             int main() { int b; b = 0; foo(&b); return b; }"
        in
        let fs = Memssa.func_ssa mssa "foo" in
        let nphis =
          Array.fold_left (fun acc l -> acc + List.length l) 0 fs.Memssa.phis
        in
        check_bool "memphi placed" true (nphis >= 1);
        check_bool "b visible in foo" true
          (loc_named pa mssa "foo" "b" <> None));
    tc "virtual input parameters exclude own locals" (fun () ->
        let _, pa, mssa = build
            "int g;\n\
             int f() { int t; t = 1; int *p = &t; *p = 2; g = *p; return g; }\n\
             int main() { return f(); }"
        in
        let fs = Memssa.func_ssa mssa "f" in
        let names =
          List.map (Analysis.Objects.loc_name pa.objects) fs.Memssa.entry_locs
        in
        check_bool "g is a virtual input" true (List.mem "g" names);
        check_bool "t is not" false (List.mem "t" names));
    tc "virtual outputs cover global modifications" (fun () ->
        let prog, pa, mssa = build
            "int g;\n\
             void bump() { g = g + 1; }\n\
             int main() { bump(); return g; }"
        in
        let fs = Memssa.func_ssa mssa "bump" in
        let names = List.map (Analysis.Objects.loc_name pa.objects) fs.Memssa.out_locs in
        check_bool "g out" true (List.mem "g" names);
        (* every ret records a version for g *)
        Ir.Prog.iter_terms
          (fun f _ t ->
            match t.Ir.Types.tkind with
            | Ir.Types.Ret _ when f.Ir.Types.fname = "bump" ->
              check_bool "g at ret" true
                (List.exists
                   (fun (l, _) -> Analysis.Objects.loc_name pa.objects l = "g")
                   (Memssa.ret_vers_at mssa t.tlbl))
            | _ -> ())
          prog);
    tc "call sites carry callee effects as mu/chi" (fun () ->
        let prog, pa, mssa = build
            "int g;\n\
             void bump() { g = g + 1; }\n\
             int main() { bump(); return g; }"
        in
        match find_instr (function Ir.Types.Call _ -> true | _ -> false) prog with
        | Some (_, i) ->
          let chi_names =
            List.map (fun (l, _, _) -> Analysis.Objects.loc_name pa.objects l)
              (Memssa.chi_at mssa i.lbl)
          in
          check_bool "g chi at call" true (List.mem "g" chi_names)
        | None -> Alcotest.fail "no call");
    tc "alloc defines every field of the object" (fun () ->
        let prog, _, mssa = build
            "struct S { int a; int b; };\n\
             int main() { struct S *p = (struct S*)malloc(sizeof(struct S));\n\
             p->a = 1; return p->a; }"
        in
        match find_instr (function Ir.Types.Alloc a -> a.Ir.Types.region = Heap | _ -> false) prog with
        | Some (_, i) -> check_int "chi per field" 2 (List.length (Memssa.chi_at mssa i.lbl))
        | None -> Alcotest.fail "no alloc");
    tc "loop bodies get memory phis at the header" (fun () ->
        let _, _, mssa = build
            "int main() { int x; int *p = &x; int i; *p = 0;\n\
             for (i = 0; i < 4; i = i + 1) { *p = *p + 1; }\n\
             return *p; }"
        in
        let fs = Memssa.func_ssa mssa "main" in
        let has_loop_phi =
          Array.exists
            (List.exists (fun (p : Memssa.memphi) -> List.length p.margs = 2))
            fs.Memssa.phis
        in
        check_bool "two-arm memphi" true has_loop_phi);
    tc "one source compiled twice dumps identically" (fun () ->
        (* temporaries are numbered per program, so nothing the process
           compiled before changes a program's names or line breaks *)
        let src =
          Workloads.Spec2000.source ~scale:2 (Workloads.Spec2000.find "164.gzip")
        in
        let dump () =
          let prog, _, mssa = build src in
          (Ir.Printer.prog_to_string prog, Memssa.to_string mssa)
        in
        let ir1, m1 = dump () in
        let ir2, m2 = dump () in
        check_str "IR" ir1 ir2;
        check_str "memory SSA" m1 m2);
  ]

let suites = [ ("memssa", tests) ]
