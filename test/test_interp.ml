(* The shadow-memory execution engine: concrete semantics, ground truth,
   shadow semantics and detection parity. *)

open Helpers

let semantics_tests =
  [
    tc "arithmetic" (fun () ->
        check_ints "out" [ 7; 1; -3; 12; 2; 1; 0; 6; 1 ]
          (outputs
             "int main() { print(3 + 4); print(7 % 2); print(-3); print(3 << 2);\n\
              print(5 / 2); print(5 > 4); print(5 < 4); print(7 & 6); print(!0);\n\
              return 0; }"));
    tc "division by zero yields zero (total semantics)" (fun () ->
        check_ints "out" [ 0; 0 ]
          (outputs "int main() { int z = input() * 0; print(7 / z); print(7 % z); return 0; }"));
    tc "while and nested ifs" (fun () ->
        check_ints "out" [ 8 ]
          (outputs
             "int main() { int n = 0; int i = 0;\n\
              while (i < 8) { if (i % 2 == 0) { n = n + 1; } else { n = n + 1; }\n\
              i = i + 1; }\n\
              print(n); return 0; }"));
    tc "recursion" (fun () ->
        check_ints "out" [ 120 ]
          (outputs
             "int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }\n\
              int main() { print(fact(5)); return 0; }"));
    tc "structs and heap" (fun () ->
        check_ints "out" [ 30 ]
          (outputs
             "struct P { int x; int y; };\n\
              int main() { struct P *p = (struct P*)malloc(sizeof(struct P));\n\
              p->x = 10; p->y = 20; print(p->x + p->y); return 0; }"));
    tc "arrays and pointer arithmetic" (fun () ->
        check_ints "out" [ 4; 9 ]
          (outputs
             "int main() { int a[4]; int i;\n\
              for (i = 0; i < 4; i = i + 1) { a[i] = i * 3; }\n\
              int *p = &a[1];\n\
              print(*p + (*p >> 1)); print(*(p + 2));\n\
              return 0; }"));
    tc "input is deterministic" (fun () ->
        let a = outputs "int main() { print(input()); print(input()); return 0; }" in
        let b = outputs "int main() { print(input()); print(input()); return 0; }" in
        check_ints "same stream" a b);
    tc "garbage is deterministic" (fun () ->
        let src = "int main() { int u; print(u | 0); return 0; }" in
        check_ints "same garbage" (outputs src) (outputs src));
    tc "out-of-bounds access traps" (fun () ->
        let prog = front "int main() { int a[2]; a[0] = 1; return a[5]; }" in
        check_bool "raises" true
          (try ignore (Runtime.Interp.run_native prog); false
           with Runtime.Interp.Runtime_error _ -> true));
    tc "step limit prevents runaway loops" (fun () ->
        let prog = front "int main() { while (1) { } return 0; }" in
        check_bool "raises" true
          (try
             ignore
               (Runtime.Interp.run
                  ~limits:{ Runtime.Interp.default_limits with max_steps = 1000 }
                  (Runtime.Interp.compile prog (Instr.Item.empty_plan prog)));
             false
           with Runtime.Interp.Resource_exhausted { what = "steps"; limit = 1000 } ->
             true));
  ]

let ground_truth_tests =
  [
    tc "branch on garbage is recorded" (fun () ->
        check_int "one gt use" 1
          (List.length (gt_uses "int main() { int u; if (u > 0) { print(1); } return 0; }")));
    tc "arithmetic propagates undefinedness to the use" (fun () ->
        check_int "one gt use" 1
          (List.length
             (gt_uses
                "int main() { int u; int v = u * 2 + 1; if (v > 0) { print(1); } return 0; }"));
        check_int "unary operators: two gt uses" 2
          (List.length
             (gt_uses
                "int main() { int u; int v = -u; int w = !u;\n\
                 if (v > 0) { print(1); } if (w) { print(2); } return 0; }"));
        (* An undefined index makes the element's address undefined: the
           store and the load through it are the uses. *)
        check_int "undefined index: two gt uses" 2
          (List.length
             (gt_uses
                "int main() { int a[4]; int *q = (int*)malloc(1); int i = *q & 3;\n\
                 a[i] = 5; int v = a[i]; print(v); return 0; }")));
    tc "defined programs have no gt uses" (fun () ->
        check_int "none" 0
          (List.length
             (gt_uses "int main() { int a[4]; int i;\n\
                       for (i = 0; i < 4; i = i + 1) { a[i] = i; }\n\
                       print(a[2]); return 0; }")));
    tc "initialized-on-the-taken-path values are defined" (fun () ->
        check_int "none" 0
          (List.length
             (gt_uses
                "int main() { int c = 1; int u; if (c) { u = 5; }\n\
                 if (u > 2) { print(u); } return 0; }")));
    tc "uninitialized heap reads are undefined" (fun () ->
        check_int "one" 1
          (List.length
             (gt_uses
                "int main() { int *p = (int*)malloc(4); int v = p[2];\n\
                 if (v > 0) { print(1); } return 0; }")));
    tc "calloc reads are defined" (fun () ->
        check_int "none" 0
          (List.length
             (gt_uses
                "int main() { int *p = (int*)calloc(4); int v = p[2];\n\
                 if (v > 0) { print(1); } return 0; }")));
  ]

(* Every variant must (a) detect every ground-truth use and (b) report
   nothing on the runtime-clean programs below. *)
let detection_cases =
  [
    ("branch on undef", "int main() { int u; if (u > 0) { print(1); } return 0; }", 1);
    ( "undef through memory",
      "int main() { int x; int *p = &x; int y = *p;\n\
       if (y > 0) { print(1); } return 0; }",
      1 );
    ( "undef through a call",
      "int id(int x) { return x; }\n\
       int main() { int u; int y = id(u); if (y > 0) { print(1); } return 0; }",
      1 );
    ( "undef struct field",
      "struct S { int a; int b; };\n\
       int main() { struct S *s = (struct S*)malloc(sizeof(struct S));\n\
       s->a = 1; int v = s->b; if (v > 0) { print(1); } return 0; }",
      1 );
    ( "clean: conditional init taken",
      "int main() { int c = 2; int u; if (c > 1) { u = 1; }\n\
       if (u > 0) { print(1); } return 0; }",
      0 );
    ( "clean: weak updates with defined values",
      "int main() { int x; int y; int *p; x = 1; y = 2; int i;\n\
       for (i = 0; i < 6; i = i + 1) { if (i % 2) { p = &x; } else { p = &y; }\n\
       *p = *p + 1; }\n\
       if (x + y > 0) { print(x + y); } return 0; }",
      0 );
    ( "clean: semi-strong rescued loop",
      "int main() { int s = 0; int i;\n\
       for (i = 0; i < 5; i = i + 1) { int *q = (int*)malloc(1); *q = i; s = s + *q; }\n\
       if (s > 1) { print(s); } return 0; }",
      0 );
  ]

let detection_tests =
  List.map
    (fun (name, src, expected) ->
      tc name (fun () ->
          let gt = gt_uses src in
          check_int "ground truth" expected (List.length gt);
          List.iter
            (fun v ->
              let det = detections src v in
              (* soundness: every gt use detected *)
              List.iter
                (fun l ->
                  check_bool
                    (Printf.sprintf "%s detects l%d" (Usher.Config.variant_name v) l)
                    true (List.mem l det))
                gt;
              (* precision: clean programs yield no reports *)
              if expected = 0 then
                check_int
                  (Printf.sprintf "%s clean" (Usher.Config.variant_name v))
                  0 (List.length det))
            Usher.Config.all_variants))
    detection_cases

let shadow_tests =
  [
    tc "shadow tracks the taken path, not the static worst case" (fun () ->
        (* statically maybe-undef, dynamically defined: no report *)
        let src =
          "int main() { int c = input(); int u;\n\
           if (c >= 0) { u = 1; } \n\
           if (u > 0) { print(1); } return 0; }"
        in
        check_int "no report" 0 (List.length (detections src Usher.Config.Msan));
        check_int "no report guided" 0
          (List.length (detections src Usher.Config.Usher_full)));
    tc "shadow memory follows stores cell by cell" (fun () ->
        let src =
          "int main() { int a[4]; a[0] = 1; a[1] = 2;\n\
           int v = a[1]; if (v > 0) { print(v); }\n\
           int w = a[3]; if (w > 0) { print(w); }\n\
           return 0; }"
        in
        (* exactly one report: the a[3] branch *)
        check_int "gt" 1 (List.length (gt_uses src));
        check_int "msan" 1 (List.length (detections src Usher.Config.Msan));
        check_int "usher" 1 (List.length (detections src Usher.Config.Usher_full)));
    tc "instrumented runs preserve outputs" (fun () ->
        let src =
          "int f(int a, int b) { return a * b + 3; }\n\
           int main() { int s = 0; int i;\n\
           for (i = 0; i < 10; i = i + 1) { s = (s + f(i, i + 1)) % 997; }\n\
           print(s); return 0; }"
        in
        let native = outputs src in
        List.iter
          (fun v ->
            check_ints (Usher.Config.variant_name v) native
              (run_variant src v).outputs)
          Usher.Config.all_variants);
    tc "dynamic shadow cost shrinks down the ladder" (fun () ->
        let src =
          "int main() { int b[8]; int i; int s = 0;\n\
           for (i = 0; i < 8; i = i + 1) { b[i] = i; }\n\
           for (i = 0; i < 50; i = i + 1) { s = s + b[i % 8];\n\
           if (s > 100) { s = s - 100; } }\n\
           print(s); return 0; }"
        in
        let cost v = Runtime.Counters.shadow_ops (run_variant src v).counters in
        check_bool "msan >= tl" true (cost Usher.Config.Msan >= cost Usher.Config.Usher_tl);
        check_bool "tl >= tlat" true
          (cost Usher.Config.Usher_tl >= cost Usher.Config.Usher_tl_at);
        check_bool "tlat >= full" true
          (cost Usher.Config.Usher_tl_at >= cost Usher.Config.Usher_full));
  ]

let suites =
  [ ("interp.semantics", semantics_tests);
    ("interp.ground-truth", ground_truth_tests);
    ("interp.detection", detection_tests);
    ("interp.shadow", shadow_tests) ]
