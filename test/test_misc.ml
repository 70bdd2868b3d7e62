(* Odds and ends: dot exporters, interpreter limits, experiment helpers,
   plan bookkeeping, memory SSA with multiple returns. *)

open Helpers

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let dot_tests =
  [
    tc "cfg dot contains every block" (fun () ->
        let p = front "int main() { int c = input(); if (c) { print(1); } else { print(2); } return 0; }" in
        let s = Ir.Dot.prog_to_string p in
        check_bool "digraph" true (contains s "digraph cfg");
        check_bool "main cluster" true (contains s "cluster_main");
        check_bool "edges" true (contains s "->"));
    tc "vfg dot colors bottom nodes red" (fun () ->
        let _, a = analyze "int main() { int u; if (u > 0) { print(1); } return 0; }" in
        let s = Vfg.Dot.to_string ~gamma:a.gamma a.vfg in
        check_bool "digraph" true (contains s "digraph vfg");
        check_bool "red nodes" true (contains s "color=red");
        check_bool "F root" true (contains s "\"F\""));
    tc "vfg dot marks interprocedural edges" (fun () ->
        let _, a = analyze
            "int id(int x) { return x; }\n\
             int main() { int u; int y = id(u); if (y > 0) { print(1); } return 0; }" in
        let s = Vfg.Dot.to_string a.vfg in
        check_bool "call edge" true (contains s "call l");
        check_bool "ret edge" true (contains s "ret l"));
  ]

let limit_tests =
  [
    tc "recursion depth limit" (fun () ->
        let p = front "int r(int n) { return r(n + 1); } int main() { return r(0); }" in
        check_bool "raises" true
          (try
             ignore
               (Runtime.Interp.run
                  ~limits:{ Runtime.Interp.default_limits with max_depth = 64 }
                  (Runtime.Interp.compile p (Instr.Item.empty_plan p)));
             false
           with Runtime.Interp.Resource_exhausted { what = "call depth"; limit = 64 } ->
             true));
    tc "object count limit" (fun () ->
        let p = front
            "int main() { int i; int s = 0;\n\
             for (i = 0; i < 100000; i = i + 1) { int *q = (int*)malloc(1); *q = i; s = s + *q; }\n\
             print(s); return 0; }" in
        check_bool "raises" true
          (try
             ignore
               (Runtime.Interp.run
                  ~limits:{ Runtime.Interp.default_limits with max_objects = 100 }
                  (Runtime.Interp.compile p (Instr.Item.empty_plan p)));
             false
           with Runtime.Interp.Resource_exhausted { what = "objects"; limit = 100 } ->
             true));
    tc "undefined allocation sizes trap" (fun () ->
        let p = front "int main() { int n; int *q = (int*)malloc(n); return 0; }" in
        check_bool "raises" true
          (try ignore (Runtime.Interp.run_native p); false
           with Runtime.Interp.Runtime_error _ -> true));
  ]

let covered_tests =
  [
    tc "covered: detected at its own label" (fun () ->
        let p = front "int main() { int u; if (u > 0) { print(1); } return 0; }" in
        let det = Hashtbl.create 4 in
        let lbl =
          let r = ref (-1) in
          Ir.Prog.iter_terms
            (fun _ _ t ->
              match t.Ir.Types.tkind with
              | Ir.Types.Br (Ir.Types.Var _, _, _) -> r := t.tlbl
              | _ -> ())
            p;
          !r
        in
        Hashtbl.replace det lbl ();
        check_bool "covered" true (Usher.Experiment.covered p det lbl));
    tc "covered: dominated by an earlier detection" (fun () ->
        let p = front
            "int main() { int u;\n\
             if (u > 0) { print(1); }\n\
             if (u > 1) { print(2); }\n\
             return 0; }" in
        let branches = ref [] in
        Ir.Prog.iter_terms
          (fun _ _ t ->
            match t.Ir.Types.tkind with
            | Ir.Types.Br (Ir.Types.Var _, _, _) -> branches := t.tlbl :: !branches
            | _ -> ())
          p;
        match List.rev !branches with
        | first :: second :: _ ->
          let det = Hashtbl.create 4 in
          Hashtbl.replace det first ();
          check_bool "second covered by first" true
            (Usher.Experiment.covered p det second);
          let det2 = Hashtbl.create 4 in
          Hashtbl.replace det2 second ();
          check_bool "first NOT covered by second" false
            (Usher.Experiment.covered p det2 first)
        | _ -> Alcotest.fail "expected two branches");
  ]

let plan_tests =
  [
    tc "items_at preserves insertion order and position" (fun () ->
        let p = front "int main() { return 0; }" in
        let plan = Instr.Item.empty_plan p in
        Instr.Item.add plan 0 Instr.Item.Before (Instr.Item.Check Ir.Types.Undef);
        Instr.Item.add plan 0 Instr.Item.After (Instr.Item.Set_var (0, Instr.Item.Rconst true));
        Instr.Item.add plan 0 Instr.Item.Before (Instr.Item.Set_global (0, Ir.Types.Cst 1));
        check_int "before items" 2
          (List.length (Instr.Item.items_at plan 0 ~pos:Instr.Item.Before));
        check_int "after items" 1
          (List.length (Instr.Item.items_at plan 0 ~pos:Instr.Item.After));
        (* duplicates are rejected *)
        Instr.Item.add plan 0 Instr.Item.Before (Instr.Item.Check Ir.Types.Undef);
        check_int "idempotent" 2
          (List.length (Instr.Item.items_at plan 0 ~pos:Instr.Item.Before)));
    tc "compress never drops shadow-memory writes" (fun () ->
        let p = front
            "int main() { int x; int *q = &x; *q = 1; print(*q); return 0; }" in
        let plan = Instr.Full.build p in
        let mem_writes plan =
          let n = ref 0 in
          Array.iter
            (List.iter (fun (it : Instr.Item.item) ->
                 match it.act with
                 | Instr.Item.Set_mem _ | Instr.Item.Set_mem_object _ -> incr n
                 | _ -> ()))
            plan.Instr.Item.items;
          !n
        in
        let before = mem_writes plan in
        ignore (Instr.Compress.fold_constants plan);
        ignore (Instr.Compress.run plan);
        check_int "mem writes preserved" before (mem_writes plan));
    tc "fold_constants is idempotent" (fun () ->
        let p = front "int main() { int a = 1; int b = a + 2; print(b); return b; }" in
        let plan = Instr.Full.build p in
        ignore (Instr.Compress.fold_constants plan);
        check_int "second pass removes nothing" 0
          (Instr.Compress.fold_constants plan));
  ]

let memssa_extra_tests =
  [
    tc "every return records output versions" (fun () ->
        let prog = front
            "int g;\n\
             int f(int c) { if (c) { g = 1; return 1; } g = 2; return 2; }\n\
             int main() { return f(input()); }" in
        let pa = Analysis.Andersen.run prog in
        let cg = Analysis.Callgraph.build prog pa in
        let mr = Analysis.Modref.compute prog pa cg in
        let mssa = Memssa.build prog pa cg mr in
        let rets = ref [] in
        Ir.Prog.iter_terms
          (fun f _ t ->
            match t.Ir.Types.tkind with
            | Ir.Types.Ret _ when f.Ir.Types.fname = "f" ->
              let l = Memssa.ret_vers_at mssa t.tlbl in
              if l <> [] then rets := l :: !rets
            | _ -> ())
          prog;
        check_int "two returns annotated" 2 (List.length !rets);
        (* the two returns see different versions of g *)
        let vers = List.concat_map (List.map snd) !rets in
        check_bool "distinct versions" true
          (List.sort_uniq compare vers |> List.length >= 2));
  ]

let suites =
  [ ("dot", dot_tests); ("interp.limits", limit_tests);
    ("experiment.covered", covered_tests); ("plan", plan_tests);
    ("memssa.extra", memssa_extra_tests) ]
