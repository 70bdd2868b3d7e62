(* mem2reg, inlining and the scalar optimization passes. *)

open Helpers

let mem2reg_tests =
  [
    tc "scalars promote, arrays stay" (fun () ->
        let p = compile "int main() { int x = 1; int a[2]; a[0] = x; return a[0]; }" in
        ignore (Optim.Mem2reg.run p);
        let allocs = count_instrs (function Ir.Types.Alloc _ -> true | _ -> false) p in
        check_int "only the array remains" 1 allocs);
    tc "address-taken scalars stay" (fun () ->
        let p = compile "int main() { int x = 1; int *p = &x; *p = 2; return x; }" in
        ignore (Optim.Mem2reg.run p);
        check_bool "x not promoted" true
          (count_instrs (function Ir.Types.Alloc a -> a.Ir.Types.aname = "x" | _ -> false) p
          = 1));
    tc "uninitialized read becomes Undef" (fun () ->
        let p = front "int main() { int x; return x + 1; }" in
        let uses_undef = ref false in
        Ir.Prog.iter_instrs
          (fun _ _ i ->
            match i.Ir.Types.kind with
            | Ir.Types.Binop (_, _, Ir.Types.Undef, _)
            | Ir.Types.Binop (_, _, _, Ir.Types.Undef) ->
              uses_undef := true
            | _ -> ())
          p;
        check_bool "undef operand" true !uses_undef);
    tc "pruned SSA: no dead phis" (fun () ->
        (* t is dead after the join; pruned SSA must not give it a phi. *)
        let p =
          front
            "int main() { int x; int t;\n\
             if (1) { x = 1; } else { t = 10; x = t; }\n\
             return x; }"
        in
        let phis = ref [] in
        Ir.Prog.iter_instrs
          (fun _ _ i ->
            match i.Ir.Types.kind with
            | Ir.Types.Phi (v, _) -> phis := (Ir.Prog.varinfo p v).vname :: !phis
            | _ -> ())
          p;
        check_bool "only x has a phi" true (!phis = [ "x" ]));
    tc "phi merges conditional definitions" (fun () ->
        check_ints "out" [ 7 ]
          (outputs "int main() { int x; int c = 0; if (c) { x = 3; } else { x = 7; }\n\
                    print(x); return 0; }"));
    tc "loop-carried values get phis" (fun () ->
        check_ints "out" [ 10 ]
          (outputs "int main() { int s = 0; int i;\n\
                    for (i = 0; i < 5; i = i + 1) { s = s + i; }\n\
                    print(s); return 0; }"));
    tc "ssa verifies after promotion" (fun () ->
        let p = front "int f(int n) { int r = 1; int i;\n\
                       for (i = 1; i <= n; i = i + 1) { r = r * i; }\n\
                       return r; }\n\
                       int main() { return f(5); }" in
        Ir.Verify.check_ssa p);
  ]

let inline_tests =
  [
    tc "function-pointer-argument functions are inlined" (fun () ->
        let p =
          compile
            "int inc(int x) { return x + 1; }\n\
             int apply(int *f, int x) { return f(x); }\n\
             int main() { return apply((int*)inc, 4); }"
        in
        let s = Optim.Inline.run p in
        check_bool "inlined" true (s.inlined_calls >= 1);
        (* main must no longer call apply directly *)
        let calls_apply = ref false in
        Ir.Func.iter_instrs
          (fun _ i ->
            match i.Ir.Types.kind with
            | Ir.Types.Call { callee = Ir.Types.Direct "apply"; _ } -> calls_apply := true
            | _ -> ())
          (Ir.Prog.get_func p "main");
        check_bool "no direct call left" false !calls_apply);
    tc "inlining preserves behaviour" (fun () ->
        let src =
          "int inc(int x) { return x + 1; }\n\
           int dbl(int x) { return x * 2; }\n\
           int apply(int *f, int x) { return f(x); }\n\
           int main() { print(apply((int*)inc, 4)); print(apply((int*)dbl, 4)); return 0; }"
        in
        check_ints "out" [ 5; 8 ] (outputs src));
    tc "recursive functions are not inlined" (fun () ->
        let p =
          compile
            "int rec(int *f, int n) { if (n < 1) { return 0; } return rec(f, n - 1) + f(n); }\n\
             int id(int x) { return x; }\n\
             int main() { return rec((int*)id, 3); }"
        in
        let s = Optim.Inline.run p in
        check_int "nothing inlined" 0 s.inlined_calls);
  ]

(* Behaviour must be identical across levels. *)
let level_preservation src =
  let base = outputs ~level:Optim.Pipeline.O0_IM src in
  check_ints "O1" base (outputs ~level:Optim.Pipeline.O1 src);
  check_ints "O2" base (outputs ~level:Optim.Pipeline.O2 src)

let scalar_tests =
  [
    tc "constprop folds arithmetic and branches" (fun () ->
        let p = front "int main() { int a = 3; int b = a * 2 + 1;\n\
                       if (b == 7) { print(1); } else { print(2); }\n\
                       return b; }" in
        ignore (Optim.Constprop.run p);
        ignore (Optim.Dce.run p);
        let branches = ref 0 in
        Ir.Prog.iter_terms
          (fun _ _ t ->
            match t.Ir.Types.tkind with Ir.Types.Br _ -> incr branches | _ -> ())
          p;
        check_int "branch folded" 0 !branches);
    tc "constprop division by zero folds like the interpreter" (fun () ->
        level_preservation "int main() { int z = 0; print(7 / z); print(7 % z); return 0; }");
    tc "copyprop chases copy chains" (fun () ->
        let p = front "int main() { int a = 5; int b = a; int c = b; print(c); return c; }" in
        ignore (Optim.Copyprop.run p);
        ignore (Optim.Dce.run p);
        check_bool "no copies left" true
          (count_instrs (function Ir.Types.Copy _ -> true | _ -> false) p = 0));
    tc "cse merges repeated subexpressions" (fun () ->
        let p = front "int main(){ int a = input(); int x = a * 3 + 1; int y = a * 3 + 1;\n\
                       print(x + y); return 0; }" in
        let before = count_instrs (function Ir.Types.Binop _ -> true | _ -> false) p in
        ignore (Optim.Cse.run p);
        ignore (Optim.Copyprop.run p);
        ignore (Optim.Dce.run p);
        let after = count_instrs (function Ir.Types.Binop _ -> true | _ -> false) p in
        check_bool "fewer binops" true (after < before));
    tc "cse does not merge across non-dominating blocks" (fun () ->
        level_preservation
          "int main() { int a = input(); int r;\n\
           if (a > 0) { r = a * 2; } else { r = a * 2 + 1; }\n\
           print(r); return 0; }");
    tc "dce removes dead arithmetic but keeps side effects" (fun () ->
        let p = front "int main() { int a = input(); int dead = a * 99;\n\
                       print(a); return 0; }" in
        ignore (Optim.Dce.run p);
        check_bool "dead binop removed" true
          (count_instrs (function Ir.Types.Binop _ -> true | _ -> false) p = 0);
        check_bool "input kept" true
          (count_instrs (function Ir.Types.Input _ -> true | _ -> false) p = 1));
    tc "licm hoists invariant arithmetic" (fun () ->
        let p = front
            "int main() { int n = input(); int k = input(); int s = 0; int i;\n\
             for (i = 0; i < n; i = i + 1) { int inv = k * 17 + 3; s = s + inv + i; }\n\
             print(s); return 0; }" in
        let f0 = Ir.Prog.get_func p "main" in
        let blocks_before = Array.length f0.blocks in
        ignore (Optim.Licm.run p);
        Ir.Verify.check_ssa p;
        let f1 = Ir.Prog.get_func p "main" in
        check_bool "preheader added" true (Array.length f1.blocks > blocks_before));
    tc "licm preserves behaviour" (fun () ->
        level_preservation
          "int main() { int n = 7; int k = 5; int s = 0; int i;\n\
           for (i = 0; i < n; i = i + 1) { int inv = k * 17 + 3; s = s + inv + i; }\n\
           print(s); return 0; }");
    tc "full pipelines preserve a mixed program" (fun () ->
        level_preservation
          "struct P { int x; int y; };\n\
           int dist(struct P *p) { return p->x * p->x + p->y * p->y; }\n\
           int main() { struct P *p = (struct P*)malloc(sizeof(struct P));\n\
           p->x = 3; p->y = 4; int a[4]; int i;\n\
           for (i = 0; i < 4; i = i + 1) { a[i] = dist(p) + i; }\n\
           print(a[0]); print(a[3]); return 0; }");
    tc "shadow dce drops unread shadow defs" (fun () ->
        let prog = front "int main() { int a = input(); int b = a + 1; print(b); return 0; }" in
        let plan = Instr.Full.build prog in
        let before = (Instr.Item.stats_of plan).total_items in
        let removed = Instr.Compress.run plan in
        check_bool "removed some" true (removed > 0);
        check_int "consistent" (before - removed) (Instr.Item.stats_of plan).total_items);
    tc "shadow constant folding removes provably-clean chains" (fun () ->
        let prog = front "int main() { int a = 2; int b = a * 3; int c = b + 4;\n\
                          if (c > 5) { print(c); } return 0; }" in
        let plan = Instr.Full.build prog in
        let removed = Instr.Compress.fold_constants plan in
        check_bool "folded" true (removed > 0);
        (* everything is constant-rooted: no checks survive *)
        check_int "no checks left" 0 (Instr.Item.stats_of plan).checks);
    tc "shadow folding keeps undef-rooted checks" (fun () ->
        let prog = front "int main() { int u; int c = 0; if (c) { u = 1; }\n\
                          if (u > 0) { print(1); } return 0; }" in
        let plan = Instr.Full.build prog in
        ignore (Instr.Compress.fold_constants plan);
        check_bool "check kept" true ((Instr.Item.stats_of plan).checks >= 1));
  ]

(* The round-based shadow dead-code elimination [Instr.Compress.run] once
   was, kept as a reference: every round rescans the plan for read shadow
   registers and drops the [Set_var]s nobody reads, until a round drops
   nothing. *)
let reference_compress (plan : Instr.Item.plan) : int =
  let reads (a : Instr.Item.action) =
    let op = function Ir.Types.Var v -> [ v ] | Cst _ | Undef -> [] in
    match a with
    | Set_var (_, (Rconst _ | Rglobal _)) -> []
    | Set_var (_, (Rvar y | Rmem y)) -> [ y ]
    | Set_var (_, Rconj ys) -> ys
    | Set_var (_, Rphi arms) -> List.concat_map (fun (_, o) -> op o) arms
    | Set_mem (_, Mop o) | Set_global (_, o) | Check o -> op o
    | Set_mem (_, Mconst _) | Set_mem_object _ -> []
  in
  let removed = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let read = Hashtbl.create 256 in
    let scan a = List.iter (fun v -> Hashtbl.replace read v ()) (reads a) in
    Array.iter (List.iter (fun (it : Instr.Item.item) -> scan it.act)) plan.items;
    Hashtbl.iter (fun _ acts -> List.iter scan acts) plan.entry_items;
    let keep (a : Instr.Item.action) =
      match a with Set_var (x, _) -> Hashtbl.mem read x | _ -> true
    in
    let sweep keep xs =
      let kept = List.filter keep xs in
      let n = List.length xs - List.length kept in
      if n > 0 then begin
        removed := !removed + n;
        continue_ := true
      end;
      kept
    in
    Array.iteri
      (fun i items ->
        plan.items.(i) <- sweep (fun (it : Instr.Item.item) -> keep it.act) items)
      plan.items;
    Hashtbl.filter_map_inplace (fun _ acts -> Some (sweep keep acts)) plan.entry_items
  done;
  !removed

(* The round-based shadow constant folding [Instr.Compress.fold_constants]
   once was, kept as a reference: assume every defined shadow constant-true
   and demote, round after round over every definition, the ones whose
   right-hand side is not, until a round demotes nothing; then rewrite. *)
let reference_fold (plan : Instr.Item.plan) : int =
  let removed = ref 0 in
  let defs = Hashtbl.create 256 in
  let scan (a : Instr.Item.action) =
    match a with Set_var (x, rhs) -> Hashtbl.replace defs x rhs | _ -> ()
  in
  Array.iter (List.iter (fun (it : Instr.Item.item) -> scan it.act)) plan.items;
  Hashtbl.iter (fun _ acts -> List.iter scan acts) plan.entry_items;
  let not_const = Hashtbl.create 256 in
  let is_true v = not (Hashtbl.mem not_const v) in
  let op_true = function Ir.Types.Var v -> is_true v | Cst _ -> true | Undef -> false in
  let rhs_true (rhs : Instr.Item.shadow_rhs) =
    match rhs with
    | Rconst b -> b
    | Rvar y -> is_true y
    | Rconj ys -> List.for_all is_true ys
    | Rmem _ | Rglobal _ -> false
    | Rphi arms -> List.for_all (fun (_, o) -> op_true o) arms
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun x rhs ->
        if is_true x && not (rhs_true rhs) then begin
          Hashtbl.replace not_const x ();
          changed := true
        end)
      defs
  done;
  let rewrite (a : Instr.Item.action) : Instr.Item.action option =
    match a with
    | Set_var (x, _) when is_true x -> incr removed; None
    | Set_var (x, Rconj ys) -> (
      match List.filter (fun y -> not (is_true y)) ys with
      | [] -> incr removed; None
      | ys' -> Some (Set_var (x, Rconj ys')))
    | Check (Var x) when is_true x -> incr removed; None
    | Set_mem (x, Mop (Var y)) when is_true y -> Some (Set_mem (x, Mop (Cst 1)))
    | Set_global (i, Var y) when is_true y -> Some (Set_global (i, Cst 1))
    | other -> Some other
  in
  Array.iteri
    (fun i items ->
      plan.items.(i) <-
        List.filter_map
          (fun (it : Instr.Item.item) ->
            Option.map (fun act -> { it with Instr.Item.act }) (rewrite it.act))
          items)
    plan.items;
  Hashtbl.filter_map_inplace
    (fun _ acts -> Some (List.filter_map rewrite acts))
    plan.entry_items;
  !removed

(* [Instr.Compress.fold_constants] must agree with the reference on the
   count and on every item, in order. *)
let fold_agrees (plan : Instr.Item.plan) =
  let ref_plan = copy_plan plan in
  let expected = reference_fold ref_plan in
  let got = Instr.Compress.fold_constants plan in
  got = expected
  && plan.items = ref_plan.items
  && entry_bindings plan = entry_bindings ref_plan

(* [Instr.Compress.run] must agree with the reference on the count and on
   every surviving item, in order. *)
let compress_agrees (plan : Instr.Item.plan) =
  let ref_plan = copy_plan plan in
  let expected = reference_compress ref_plan in
  let got = Instr.Compress.run plan in
  got = expected
  && plan.items = ref_plan.items
  && entry_bindings plan = entry_bindings ref_plan

(* The five plans of a program at O2, unfolded. *)
let o2_plans src =
  let a = Usher.Pipeline.analyze (front ~level:Optim.Pipeline.O2 src) in
  List.map (fun v -> fst (Usher.Pipeline.plan_for a v)) Usher.Config.all_variants

let compress_tests =
  [
    (* Both passes, one after the other, as [Experiment.prepare] runs
       them; the fold reference is checked here only. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100
         ~name:"Compress.run matches the round-based reference (fuzz, O2)"
         QCheck.(make ~print:string_of_int Gen.(0 -- 100000))
         (fun seed ->
           List.for_all
             (fun plan -> fold_agrees plan && compress_agrees plan)
             (o2_plans (Audit.Gen.source ~seed ()))));
    (* Slow: the reference is quadratic, about 40 s over the analogs. *)
    Alcotest.test_case
      "Compress.run matches the round-based reference (15 analogs, O2)" `Slow
      (fun () ->
        List.iter
          (fun (p : Workloads.Profile.t) ->
            let level = Optim.Pipeline.O2 in
            let _, a = analog ~level p in
            check_bool p.pname true
              (List.for_all compress_agrees (folded_plans ~level a)))
          Workloads.Spec2000.all);
  ]

(* The dense frontend against [Frontend_reference], kept as it was before:
   the token stream (tokens, lines and columns, or the diagnostic) and the
   IR after mem2reg. Both sides compile the same source from scratch, so
   they agree on every variable id and label; the digest masks only the
   temporaries' process-global names. *)

module R = Frontend_reference

let lex_result tokenize src =
  match tokenize src with
  | toks -> Ok (List.map (fun (t : Tinyc.Token.spanned) -> (t.tok, t.line, t.col)) toks)
  | exception Diag.Error d -> Error (d.Diag.phase, d.loc, d.message)

let same_tokens src =
  lex_result (fun s -> Array.to_list (Tinyc.Lexer.tokenize s)) src
  = lex_result R.Lexer.tokenize src

let same_mem2reg src =
  let p = before_mem2reg src and p' = before_mem2reg src in
  let s = Optim.Mem2reg.run p and s' = R.run p' in
  s.promoted = s'.promoted && s.phis_inserted = s'.phis_inserted
  && ir_digest p = ir_digest p'

let reference_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100
         ~name:"tokens and mem2reg match the reference (100 generated programs)"
         QCheck.(
           make
             ~print:(fun (size, seed) -> Printf.sprintf "size %d, seed %d" size seed)
             Gen.(pair (3 -- 8) (0 -- 100000)))
         (fun (size, seed) ->
           let src = Audit.Gen.source ~size ~seed () in
           same_tokens src && same_mem2reg src));
    (* An unterminated comment, an unexpected character, and the end of
       input inside a token or right after one. *)
    tc "malformed and truncated inputs lex as the reference does" (fun () ->
        List.iter
          (fun src -> check_bool (String.escaped src) true (same_tokens src))
          [ "1 /* oops"; "int main() {\n  return a /* oops\n"; "/* a *"; "/*";
            "a $ b"; "int x = 1;\n\t@"; "a\000b"; "int main() { return 12";
            "abc"; "x -"; "x <"; "x >"; "x &"; "x |"; "x !"; "x ="; "x /";
            "// only a comment"; ""; "  \n\r\t " ]);
    tc "parse diagnostics at the end of input" (fun () ->
        List.iter
          (fun (src, line, col, message) ->
            match Tinyc.Parser.parse_program src with
            | _ -> Alcotest.failf "%S parsed" src
            | exception Diag.Error d ->
              check_bool "phase" true (d.Diag.phase = Diag.Parse);
              check_bool "location" true (d.loc = Some { Diag.line; col });
              check_str "message" message d.message)
          [ ("int main() { return 1 +", 1, 24, "near \"<eof>\": expected expression");
            ("int main() { return 12", 1, 23, "near \"<eof>\": expected \";\"");
            ("int g = -", 1, 10,
             "near \"<eof>\": global initializer must be an integer literal");
            ("int main() { return 1; }\n/", 2, 1, "near \"/\": expected a type") ]);
    (* A branch with both arms to one block lists its source twice among
       that block's preds, and blocks that jump back to the entry walk up
       through the entry: both reach a frontier twice, which must keep one
       copy. *)
    tc "dominance frontiers with a repeated pred and loops to the entry" (fun () ->
        let func terms =
          let b = Ir.Builder.create (Ir.Prog.create ()) ~fname:"f" in
          List.iter
            (fun t ->
              Ir.Builder.switch_to b (Ir.Builder.new_block b);
              Ir.Builder.terminate b t)
            terms;
          Ir.Builder.finish b
        in
        let open Ir.Types in
        List.iter
          (fun (terms, expected) ->
            let f = func terms in
            let d = Analysis.Dominance.compute f in
            let got = Array.init (Array.length f.blocks) (Analysis.Dominance.frontier d) in
            check_bool "reference" true (got = R.frontiers f);
            check_bool "expected" true (got = expected))
          [ ( [ Br (Cst 1, 1, 2); Br (Cst 1, 3, 3); Jmp 3; Ret None ],
              [| []; [ 3 ]; [ 3 ]; [] |] );
            ( [ Br (Cst 1, 1, 2); Jmp 0; Jmp 0 ], [| [ 0 ]; [ 0 ]; [ 0 ] |] ) ]);
    (* Frontiers are built on demand and deduplicated with a stamp; the
       lists, whose order decides phi order, must not change. *)
    tc "dominance frontiers match the reference on the 15 analogs" (fun () ->
        List.iter
          (fun (pr : Workloads.Profile.t) ->
            let p = compile (Workloads.Spec2000.source ~scale:5 pr) in
            Ir.Prog.iter_funcs
              (fun f ->
                let d = Analysis.Dominance.compute f in
                let got = Array.init (Array.length f.blocks) (Analysis.Dominance.frontier d) in
                if got <> R.frontiers f then
                  Alcotest.failf "%s: %s frontiers differ" pr.pname f.fname)
              p)
          Workloads.Spec2000.all);
  ]

(* The dense scalar passes against [Optim_reference], kept as they were
   before: whole O1 and O2 pipelines on generated programs, and single
   passes on programs that reach the cases the dense versions handle in
   their own way. Both sides build the same program from scratch, so they
   agree on every variable id and label. *)

module OR = Optim_reference

let same_pipeline level src =
  let p = front ~level src and p' = compile src in
  OR.run level p';
  ir_digest p = ir_digest p'

(* [dense] and [reference] on two copies of [make ()] change the same
   thing; the dense side's program is returned. *)
let agree what dense reference make =
  let p = make () and p' = make () in
  let c = dense p and c' = reference p' in
  check_bool (what ^ ": changed") c' c;
  check_str (what ^ ": IR") (ir_digest p') (ir_digest p);
  p

let outputs_of p =
  let acc = ref [] in
  Ir.Prog.iter_instrs
    (fun _ _ i -> match i.Ir.Types.kind with Ir.Types.Output o -> acc := o :: !acc | _ -> ())
    p;
  List.rev !acc

(* x0 := input; x1 := x0; [b1] x2 := phi(b0: x1); x3 := x2; print x3; ret x3 *)
let copy_chain () =
  let open Ir.Types in
  let p = Ir.Prog.create () in
  let b = Ir.Builder.create p ~fname:"main" in
  let b0 = Ir.Builder.new_block b and b1 = Ir.Builder.new_block b in
  Ir.Builder.switch_to b b0;
  let x0 = Ir.Builder.fresh_temp b in
  ignore (Ir.Builder.add b (Input x0));
  let x1 = Ir.Builder.copy b (Var x0) in
  Ir.Builder.terminate b (Jmp b1);
  Ir.Builder.switch_to b b1;
  let x2 = Ir.Builder.fresh_temp b in
  ignore (Ir.Builder.add b (Phi (x2, [ (b0, Var x1) ])));
  let x3 = Ir.Builder.copy b (Var x2) in
  ignore (Ir.Builder.add b (Output (Var x3)));
  Ir.Builder.terminate b (Ret (Some (Var x3)));
  ignore (Ir.Builder.finish b);
  p

let optim_reference_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100
         ~name:"O1 and O2 pipelines match the reference (100 generated programs)"
         QCheck.(
           make
             ~print:(fun (size, seed) -> Printf.sprintf "size %d, seed %d" size seed)
             Gen.(pair (3 -- 8) (0 -- 100000)))
         (fun (size, seed) ->
           let src = Audit.Gen.source ~size ~seed () in
           same_pipeline Optim.Pipeline.O1 src && same_pipeline Optim.Pipeline.O2 src));
    (* x's loop phi has the arms 5 and the body's 2 + 3, defined later in
       block order: the phi is constant only once the body is seen. *)
    tc "a phi whose arms become constant after a later def" (fun () ->
        let src =
          "int main() { int x = 5; int i = input();\n\
           while (i > 0) { x = 2 + 3; i = i - 1; }\n\
           print(x); return 0; }"
        in
        let p = agree "constprop" Optim.Constprop.run OR.Constprop.run (fun () -> front src) in
        check_bool "print(5)" true (outputs_of p = [ Ir.Types.Cst 5 ]));
    (* [while (1)] folds to the body, so the exit, still reached by the
       break, loses the header's arm of its phi. *)
    tc "branch folding prunes phi arms" (fun () ->
        let src =
          "int main() { int x = input();\n\
           while (1) { if (x > 5) { x = 1; break; } x = x + 1; }\n\
           print(x); return 0; }"
        in
        let p = agree "constprop" Optim.Constprop.run OR.Constprop.run (fun () -> front src) in
        check_bool "x := phi(break: 1)" true
          (find_instr (function Ir.Types.Phi (_, [ (_, Cst 1) ]) -> true | _ -> false) p
          <> None));
    tc "a copy chain through a one-armed phi" (fun () ->
        let p = agree "copyprop" Optim.Copyprop.run OR.Copyprop.run copy_chain in
        let x0 = 0 in
        check_bool "print(x0)" true (outputs_of p = [ Ir.Types.Var x0 ]);
        check_bool "ret x0" true
          ((Ir.Prog.get_func p "main").blocks.(1).term.tkind = Ir.Types.Ret (Some (Ir.Types.Var x0))));
    (* The load of *p is unused: DCE deletes it, and with it the check
       on p's cell (paper §4.6). *)
    tc "a dead load goes" (fun () ->
        let src = "int main() { int *p = (int*)malloc(4); int u = *p; print(1); return 0; }" in
        let loads p = count_instrs (function Ir.Types.Load _ -> true | _ -> false) p in
        check_int "load before" 1 (loads (front src));
        let p = agree "dce" Optim.Dce.run OR.Dce.run (fun () -> front src) in
        check_int "load after" 0 (loads p));
    tc "cse on the 15 analogs at O2" (fun () ->
        List.iter
          (fun (pr : Workloads.Profile.t) ->
            let make () =
              let p = front (Workloads.Spec2000.source ~scale:5 pr) in
              ignore (Optim.Constprop.run p);
              ignore (Optim.Copyprop.run p);
              p
            in
            ignore (agree pr.pname Optim.Cse.run OR.Cse.run make))
          Workloads.Spec2000.all);
  ]

let suites =
  [ ("mem2reg", mem2reg_tests); ("inline", inline_tests);
    ("scalar-opts", scalar_tests); ("compress", compress_tests);
    ("frontend.reference", reference_tests); ("optim.reference", optim_reference_tests) ]
