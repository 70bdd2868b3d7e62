(* Lexer, parser and lowering tests. *)

open Helpers
module T = Tinyc.Token

let toks src =
  Array.to_list (Array.map (fun (s : T.spanned) -> s.tok) (Tinyc.Lexer.tokenize src))

let lexer_tests =
  [
    tc "integers and identifiers" (fun () ->
        check_bool "toks" true
          (toks "foo 42 _bar9"
          = [ T.IDENT "foo"; T.INT 42; T.IDENT "_bar9"; T.EOF ]));
    tc "keywords are not identifiers" (fun () ->
        check_bool "kw" true
          (toks "int if while return"
          = [ T.KW_INT; T.KW_IF; T.KW_WHILE; T.KW_RETURN; T.EOF ]));
    tc "two-character operators" (fun () ->
        check_bool "ops" true
          (toks "== != <= >= << >> && || ->"
          = [ T.EQ; T.NE; T.LE; T.GE; T.SHL; T.SHR; T.ANDAND; T.OROR;
              T.ARROW; T.EOF ]));
    tc "operator prefixes split correctly" (fun () ->
        check_bool "prefix" true
          (toks "<< < <= =" = [ T.SHL; T.LT; T.LE; T.ASSIGN; T.EOF ]));
    tc "line comments" (fun () ->
        check_bool "c" true (toks "1 // two three\n4" = [ T.INT 1; T.INT 4; T.EOF ]));
    tc "block comments" (fun () ->
        check_bool "c" true (toks "1 /* 2\n 3 */ 4" = [ T.INT 1; T.INT 4; T.EOF ]));
    tc "unterminated comment fails with located diagnostic" (fun () ->
        match (try ignore (toks "1 /* oops"); None with Diag.Error d -> Some d) with
        | None -> Alcotest.fail "expected a diagnostic"
        | Some d ->
          check_bool "phase" true (d.Diag.phase = Diag.Lex);
          check_str "message" "unterminated comment" d.Diag.message;
          (match d.Diag.loc with
          | Some { Diag.line; col } ->
            check_int "line" 1 line;
            check_int "col" 10 col
          | None -> Alcotest.fail "diagnostic has no location"));
    tc "positions recorded" (fun () ->
        let s = (Tinyc.Lexer.tokenize "a\n  b").(1) in
        check_int "line" 2 s.line;
        check_int "col" 3 s.col);
    tc "unexpected character fails" (fun () ->
        check_bool "raises" true
          (try ignore (toks "a $ b"); false with Diag.Error _ -> true));
  ]

let parses src =
  try ignore (Tinyc.Parser.parse_program src); true
  with Diag.Error _ -> false

let parser_tests =
  [
    tc "minimal program" (fun () -> check_bool "p" true (parses "int main() { return 0; }"));
    tc "syntax error carries the offending location" (fun () ->
        let src = "int main() {\n  int x = ;\n  return 0;\n}" in
        match
          (try ignore (Tinyc.Parser.parse_program src); None
           with Diag.Error d -> Some d)
        with
        | None -> Alcotest.fail "expected a diagnostic"
        | Some d -> (
          check_bool "phase" true (d.Diag.phase = Diag.Parse);
          match d.Diag.loc with
          | Some { Diag.line; col } ->
            check_int "line" 2 line;
            check_int "col" 11 col
          | None -> Alcotest.fail "diagnostic has no location"));
    tc "precedence: * over +" (fun () ->
        match Tinyc.Parser.parse_program "int main() { return 1 + 2 * 3; }" with
        | [ Tinyc.Ast.Ifunc f ] -> (
          match f.fbody with
          | [ Tinyc.Ast.Sreturn (Some (Tinyc.Ast.Ebinop (Tinyc.Ast.Badd, _, Tinyc.Ast.Ebinop (Tinyc.Ast.Bmul, _, _)))) ] ->
            ()
          | _ -> Alcotest.fail "wrong tree")
        | _ -> Alcotest.fail "wrong program");
    tc "comparison over shift" (fun () ->
        match Tinyc.Parser.parse_program "int main() { return 1 << 2 < 3; }" with
        | [ Tinyc.Ast.Ifunc f ] -> (
          match f.fbody with
          | [ Tinyc.Ast.Sreturn (Some (Tinyc.Ast.Ebinop (Tinyc.Ast.Blt, Tinyc.Ast.Ebinop (Tinyc.Ast.Bshl, _, _), _))) ] ->
            ()
          | _ -> Alcotest.fail "wrong tree")
        | _ -> Alcotest.fail "wrong program");
    tc "struct definition and use" (fun () ->
        check_bool "p" true
          (parses
             "struct S { int a; int *b; };\n\
              int main() { struct S s; s.a = 1; return s.a; }"));
    tc "pointers, arrays, address-of" (fun () ->
        check_bool "p" true
          (parses
             "int main() { int a[4]; int *p = &a[1]; *p = 2; return a[1]; }"));
    tc "for with declaration" (fun () ->
        check_bool "p" true
          (parses "int main() { int s = 0; for (int i = 0; i < 3; i = i + 1) { s = s + i; } return s; }"));
    tc "dangling else binds to nearest if" (fun () ->
        match Tinyc.Parser.parse_program
                "int main() { if (1) if (2) return 1; else return 2; return 3; }" with
        | [ Tinyc.Ast.Ifunc f ] -> (
          match f.fbody with
          | [ Tinyc.Ast.Sif (_, [ Tinyc.Ast.Sif (_, _, els) ], []); _ ] ->
            check_int "inner else" 1 (List.length els)
          | _ -> Alcotest.fail "wrong tree")
        | _ -> Alcotest.fail "wrong program");
    tc "sizeof and casts" (fun () ->
        check_bool "p" true
          (parses
             "struct S { int x; int y; };\n\
              int main() { struct S *p = (struct S*)malloc(sizeof(struct S)); return 0; }"));
    tc "missing semicolon fails" (fun () ->
        check_bool "p" false (parses "int main() { return 0 }"));
    tc "unbalanced braces fail" (fun () ->
        check_bool "p" false (parses "int main() { return 0; "));
    tc "global with initializer" (fun () ->
        match Tinyc.Parser.parse_program "int g = -3;" with
        | [ Tinyc.Ast.Iglobal g ] -> check_bool "init" true (g.gdinit = Some (-3))
        | _ -> Alcotest.fail "wrong program");
  ]

let lower_tests =
  [
    tc "Fig. 2: address-of compiles away" (fun () ->
        (* int **a, *b; int c; a = &b; b = &c; c = 10; i = c  — the lowered
           program contains allocs, stores and loads but no & operator. *)
        let p =
          compile
            "int main() { int **a; int *b; int c; int i;\n\
             a = &b; b = &c; c = 10; i = c; return i; }"
        in
        let allocs = count_instrs (function Ir.Types.Alloc _ -> true | _ -> false) p in
        check_bool "allocs for locals" true (allocs >= 4));
    tc "locals allocate in the entry block" (fun () ->
        let p = compile "int main() { int x; if (1) { int y; y = 2; x = y; } return x; }" in
        let f = Ir.Prog.get_func p "main" in
        let entry_allocs = ref 0 and other_allocs = ref 0 in
        Array.iter
          (fun (b : Ir.Types.block) ->
            List.iter
              (fun (i : Ir.Types.instr) ->
                match i.kind with
                | Ir.Types.Alloc _ ->
                  if b.bid = 0 then incr entry_allocs else incr other_allocs
                | _ -> ())
              b.instrs)
          f.blocks;
        check_int "entry allocs" 2 !entry_allocs;
        check_int "non-entry allocs" 0 !other_allocs);
    tc "malloc(1) is a scalar cell" (fun () ->
        let p = compile "int main() { int *p = (int*)malloc(1); *p = 1; return *p; }" in
        match find_instr (function Ir.Types.Alloc a -> a.region = Heap | _ -> false) p with
        | Some (_, { kind = Ir.Types.Alloc a; _ }) ->
          check_bool "fields" true (a.asize = Ir.Types.Fields 1);
          check_bool "uninit" true (not a.initialized)
        | _ -> Alcotest.fail "no heap alloc");
    tc "calloc is initialized" (fun () ->
        let p = compile "int main() { int *p = (int*)calloc(4); return *p; }" in
        match find_instr (function Ir.Types.Alloc a -> a.region = Heap | _ -> false) p with
        | Some (_, { kind = Ir.Types.Alloc a; _ }) ->
          check_bool "init" true a.initialized
        | _ -> Alcotest.fail "no heap alloc");
    tc "struct malloc is field-sensitive" (fun () ->
        let p =
          compile
            "struct S { int a; int b; int c; };\n\
             int main() { struct S *p = (struct S*)malloc(sizeof(struct S)); return 0; }"
        in
        match find_instr (function Ir.Types.Alloc a -> a.region = Heap | _ -> false) p with
        | Some (_, { kind = Ir.Types.Alloc a; _ }) ->
          check_bool "3 fields" true (a.asize = Ir.Types.Fields 3)
        | _ -> Alcotest.fail "no heap alloc");
    tc "field access lowers to Field_addr" (fun () ->
        let p =
          compile
            "struct S { int a; int b; };\n\
             int main() { struct S s; s.b = 1; return s.b; }"
        in
        check_int "field addrs" 2
          (count_instrs (function Ir.Types.Field_addr (_, _, 1) -> true | _ -> false) p));
    tc "array indexing lowers to Index_addr" (fun () ->
        let p = compile "int main() { int a[3]; a[1] = 2; return a[1]; }" in
        check_bool "index addrs" true
          (count_instrs (function Ir.Types.Index_addr _ -> true | _ -> false) p >= 2));
    tc "a subscripted pointer global takes its address once" (fun () ->
        (* One &g for the store and one for the load g[1] reads through;
           no lvalue attempt leaves a third, unused one. *)
        let src = "int *g; int main() { int a[4]; a[1] = 3; g = a; return g[1]; }" in
        check_int "global addrs" 2
          (count_instrs (function Ir.Types.Global_addr _ -> true | _ -> false)
             (compile src));
        check_int "exit" 3 (Runtime.Interp.run_native (front src)).exit_value);
    tc "pointer arithmetic is an address computation" (fun () ->
        let p = compile "int main() { int a[4]; int *p = &a[0]; return *(p + 2); }" in
        check_bool "index addrs" true
          (count_instrs (function Ir.Types.Index_addr _ -> true | _ -> false) p >= 2));
    tc "break and continue" (fun () ->
        check_ints "out" [ 4 ]
          (outputs
             "int main() { int s = 0; int i;\n\
              for (i = 0; i < 10; i = i + 1) {\n\
              if (i == 2) { continue; }\n\
              if (i > 3) { break; }\n\
              s = s + i; } print(s); return 0; }"));
    tc "function pointers dispatch" (fun () ->
        check_ints "out" [ 7; 12 ]
          (outputs
             "int add3(int x) { return x + 3; }\n\
              int mul3(int x) { return x * 3; }\n\
              int main() { int *f = (int*)add3; print(f(4));\n\
              f = (int*)mul3; print(f(4)); return 0; }"));
    tc "global arrays are zero-initialized" (fun () ->
        check_ints "out" [ 0 ] (outputs "int g[5]; int main() { print(g[3]); return 0; }"));
    tc "unknown variable fails" (fun () ->
        check_bool "raises" true
          (try ignore (compile "int main() { return nope; }"); false
           with Diag.Error _ -> true));
    tc "arity mismatch fails" (fun () ->
        check_bool "raises" true
          (try ignore (compile "int f(int a) { return a; } int main() { return f(1, 2); }"); false
           with Diag.Error _ -> true));
    tc "break outside loop fails" (fun () ->
        check_bool "raises" true
          (try ignore (compile "int main() { break; return 0; }"); false
           with Diag.Error _ -> true));
    tc "non-short-circuit logical operators" (fun () ->
        check_ints "out" [ 1; 0; 1 ]
          (outputs
             "int main() { print(1 && 2); print(3 && 0); print(0 || 5); return 0; }"));
  ]

let suites =
  [ ("lexer", lexer_tests); ("parser", parser_tests); ("lowering", lower_tests) ]

(* ---- conditional expressions and compound assignment ---- *)

let sugar_tests =
  [
    tc "ternary selects by condition" (fun () ->
        check_ints "out" [ 10; 20 ]
          (outputs
             "int main() { int c = 1; print(c ? 10 : 20);\n\
              print(c - 1 ? 10 : 20); return 0; }"));
    tc "ternary is right-associative" (fun () ->
        check_ints "out" [ 2 ]
          (outputs "int main() { int x = 0; print(x ? 1 : x + 1 ? 2 : 3); return 0; }"));
    tc "nested ternaries in arguments" (fun () ->
        check_ints "out" [ 7 ]
          (outputs
             "int pick(int a, int b) { return a > b ? a : b; }\n\
              int main() { print(pick(3 < 5 ? 7 : 1, 2)); return 0; }"));
    tc "ternary arms join through a phi" (fun () ->
        let p = front "int main() { int c = input();\n\
                       int v = c > 0 ? c * 2 : 0 - c;\n\
                       print(v); return 0; }" in
        Ir.Verify.check_ssa p;
        check_bool "phi present" true
          (count_instrs (function Ir.Types.Phi _ -> true | _ -> false) p >= 1));
    tc "compound assignments" (fun () ->
        check_ints "out" [ 9; 5; 15 ]
          (outputs
             "int main() { int x = 4; x += 5; print(x);\n\
              x -= 4; print(x); x *= 3; print(x); return 0; }"));
    tc "compound assignment through pointers and arrays" (fun () ->
        check_ints "out" [ 11; 6 ]
          (outputs
             "int main() { int a[2]; a[0] = 1; a[1] = 2;\n\
              int *p = &a[0]; *p += 10; a[1] *= 3;\n\
              print(a[0]); print(a[1]); return 0; }"));
    tc "ternary with maybe-undef arm stays sound" (fun () ->
        let src =
          "int main() { int u; int c = input();\n\
           int v = c > 999999 ? u : 5;\n\
           if (v > 1) { print(v); } return 0; }"
        in
        (* runtime picks the defined arm: no reports, but static state is
           bot so the check survives under every variant *)
        check_int "no reports" 0 (List.length (detections src Usher.Config.Msan));
        check_int "no reports guided" 0
          (List.length (detections src Usher.Config.Usher_full));
        let s = static_stats src Usher.Config.Usher_full in
        check_bool "check kept" true (s.checks >= 1));
  ]

let suites = suites @ [ ("tinyc.sugar", sugar_tests) ]
