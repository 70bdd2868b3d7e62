(* IR utilities: growable vectors, bitsets, verification. *)

open Helpers

let vec_tests =
  [
    tc "push and get" (fun () ->
        let v = Ir.Vec.create ~dummy:0 in
        for i = 0 to 99 do
          check_int "index" i (Ir.Vec.push v (i * 2))
        done;
        check_int "len" 100 (Ir.Vec.length v);
        check_int "get" 84 (Ir.Vec.get v 42));
    tc "set" (fun () ->
        let v = Ir.Vec.create ~dummy:0 in
        ignore (Ir.Vec.push v 1);
        Ir.Vec.set v 0 9;
        check_int "get" 9 (Ir.Vec.get v 0));
    tc "out of range" (fun () ->
        let v = Ir.Vec.create ~dummy:0 in
        check_bool "raises" true
          (try ignore (Ir.Vec.get v 0); false with Invalid_argument _ -> true));
    tc "fold and iteri" (fun () ->
        let v = Ir.Vec.create ~dummy:0 in
        List.iter (fun x -> ignore (Ir.Vec.push v x)) [ 1; 2; 3 ];
        check_int "sum" 6 (Ir.Vec.fold_left ( + ) 0 v));
  ]

module B = Analysis.Bitset

let bitset_tests =
  [
    tc "add and mem" (fun () ->
        let s = B.create () in
        check_bool "fresh add" true (B.add s 100);
        check_bool "re-add" false (B.add s 100);
        check_bool "mem" true (B.mem s 100);
        check_bool "not mem" false (B.mem s 99));
    tc "cardinal and elements" (fun () ->
        let s = B.create () in
        List.iter (fun i -> ignore (B.add s i)) [ 3; 200; 64; 63 ];
        check_int "card" 4 (B.cardinal s);
        check_ints "elems" [ 3; 63; 64; 200 ] (B.elements s));
    tc "union_into reports change" (fun () ->
        let a = B.create () and b = B.create () in
        ignore (B.add a 5);
        check_bool "changed" true (B.union_into ~src:a ~dst:b);
        check_bool "no change" false (B.union_into ~src:a ~dst:b);
        check_bool "mem" true (B.mem b 5));
    tc "diff_new" (fun () ->
        let a = B.create () and b = B.create () in
        List.iter (fun i -> ignore (B.add a i)) [ 1; 2; 3 ];
        ignore (B.add b 2);
        check_ints "diff" [ 1; 3 ] (List.sort compare (B.diff_new ~src:a ~old:b)));
    tc "equal across different capacities" (fun () ->
        let a = B.create () and b = B.create () in
        ignore (B.add a 1);
        ignore (B.add b 1);
        ignore (B.add b 500);
        check_bool "neq" false (B.equal a b);
        ignore (B.add a 500);
        check_bool "eq" true (B.equal a b));
    tc "choose on empty" (fun () ->
        check_bool "none" true (B.choose (B.create ()) = None));
  ]

let verify_tests =
  [
    tc "well-formed program passes" (fun () ->
        let p = compile "int main() { int x = 1; return x; }" in
        Ir.Verify.check p);
    tc "ssa holds after O0+IM" (fun () ->
        let p = front "int f(int a) { return a + 1; } int main() { return f(2); }" in
        Ir.Verify.check_ssa p);
    tc "missing main is rejected" (fun () ->
        let p = Ir.Prog.create () in
        check_bool "raises" true
          (try Ir.Verify.check p; false with Ir.Verify.Ill_formed _ -> true));
    tc "double definition is rejected in SSA" (fun () ->
        let p = Ir.Prog.create () in
        let b = Ir.Builder.create p ~fname:"main" in
        let bid = Ir.Builder.new_block b in
        Ir.Builder.switch_to b bid;
        let x = Ir.Builder.fresh_var b "x" in
        ignore (Ir.Builder.add b (Ir.Types.Const (x, 1)));
        ignore (Ir.Builder.add b (Ir.Types.Const (x, 2)));
        Ir.Builder.terminate b (Ir.Types.Ret None);
        ignore (Ir.Builder.finish b);
        check_bool "raises" true
          (try Ir.Verify.check_ssa p; false with Ir.Verify.Ill_formed _ -> true));
    (* b0 branches to b1 on both arms, so b1's preds are b0, b0, b2; its
       phi reads x2, defined later in block order by the loop body b2. *)
    tc "phi arms are the preds as a multiset; uses may precede defs" (fun () ->
        let open Ir.Types in
        let build ~arms ~stray =
          let p = Ir.Prog.create () in
          let b = Ir.Builder.create p ~fname:"main" in
          let b0 = Ir.Builder.new_block b and b1 = Ir.Builder.new_block b in
          let b2 = Ir.Builder.new_block b and b3 = Ir.Builder.new_block b in
          let x0 = Ir.Builder.fresh_var b "x0" and x1 = Ir.Builder.fresh_var b "x1" in
          let x2 = Ir.Builder.fresh_var b "x2" and y = Ir.Builder.fresh_var b "y" in
          Ir.Builder.switch_to b b0;
          ignore (Ir.Builder.add b (Input x0));
          Ir.Builder.terminate b (Br (Var x0, b1, b1));
          Ir.Builder.switch_to b b1;
          ignore (Ir.Builder.add b (Phi (x1, arms x0 x2)));
          Ir.Builder.terminate b (Br (Var x1, b2, b3));
          Ir.Builder.switch_to b b2;
          ignore (Ir.Builder.add b (Binop (x2, Add, Var x1, Cst 1)));
          Ir.Builder.terminate b (Jmp b1);
          Ir.Builder.switch_to b b3;
          if stray then ignore (Ir.Builder.add b (Output (Var y)));
          Ir.Builder.terminate b (Ret (Some (Var x1)));
          ignore (Ir.Builder.finish b);
          p
        in
        let message p =
          match Ir.Verify.check_ssa p with
          | () -> "ok"
          | exception Diag.Error d -> d.message
        in
        let all x0 x2 = [ (0, Var x0); (2, Var x2); (0, Var x0) ] in
        check_str "well formed" "ok" (message (build ~arms:all ~stray:false));
        check_str "an arm short" "main: phi in b1 has arms 0,2 but preds 0,0,2"
          (message (build ~arms:(fun x0 x2 -> [ (0, Var x0); (2, Var x2) ]) ~stray:false));
        check_str "an arm too many" "main: phi in b1 has arms 0,0,2,3 but preds 0,0,2"
          (message (build ~arms:(fun x0 x2 -> (3, Var x2) :: all x0 x2) ~stray:false));
        check_str "a use never defined" "main: l6 uses y which has no definition here"
          (message (build ~arms:all ~stray:true)));
    tc "branch to nonexistent block is rejected" (fun () ->
        let p = Ir.Prog.create () in
        let b = Ir.Builder.create p ~fname:"main" in
        let bid = Ir.Builder.new_block b in
        Ir.Builder.switch_to b bid;
        Ir.Builder.terminate b (Ir.Types.Jmp 7);
        ignore (Ir.Builder.finish b);
        check_bool "raises" true
          (try Ir.Verify.check p; false with Ir.Verify.Ill_formed _ -> true));
  ]

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let printer_tests =
  [
    tc "printer shows phis after mem2reg" (fun () ->
        let p =
          front
            "int main() { int x; int i;\n\
             for (i = 0; i < 3; i = i + 1) { x = i; }\n\
             if (x > 1) { print(x); }\n\
             return x; }"
        in
        check_bool "has phi" true (contains (Ir.Printer.prog_to_string p) "phi"));
    tc "printer shows alloc kinds" (fun () ->
        let p = compile "int g; int main() { int a[2]; a[0] = 1; return a[0]; }" in
        let s = Ir.Printer.prog_to_string p in
        check_bool "stack alloc" true (contains s "<stack>");
        check_bool "global decl" true (contains s "global g"));
  ]

module Bld = Ir.Builder

let raises_ir_error f =
  try
    f ();
    false
  with Diag.Error { phase = Diag.Ir; _ } -> true

let output n = Ir.Types.Output (Ir.Types.Cst n)

let builder_tests =
  [
    tc "temporaries are named t and their number" (fun () ->
        List.iter
          (fun n -> check_str (string_of_int n) ("t" ^ string_of_int n) (Bld.temp_name n))
          [ 0; 1; 9; 10; 11; 99; 100; 101; 999_999; 1_000_000; 1234567890; max_int ];
        let p = Ir.Prog.create () in
        let b = Bld.create p ~fname:"f" in
        let name v = (Ir.Prog.varinfo p v).Ir.Types.vname in
        let x = name (Bld.fresh_temp b) and y = name (Bld.fresh_temp b) in
        let num s = int_of_string (String.sub s 1 (String.length s - 1)) in
        check_str "x" ("t" ^ string_of_int (num x)) x;
        check_int "consecutive" (num x + 1) (num y));
    tc "map_funcs replaces every function in order" (fun () ->
        let p = compile "int f() { return 1; } int g() { return 2; } int main() { return f() + g(); }" in
        let seen = ref [] in
        Ir.Prog.map_funcs
          (fun f ->
            seen := f.Ir.Types.fname :: !seen;
            { f with Ir.Types.blocks = Array.copy f.Ir.Types.blocks })
          p;
        Alcotest.(check (list string)) "order" [ "f"; "g"; "main" ] (List.rev !seen);
        List.iter
          (fun (n, f) -> check_bool n true (Ir.Prog.get_func p n == f))
          p.Ir.Types.funcs);
    tc "interleaved appends keep each block's order" (fun () ->
        let b = Bld.create (Ir.Prog.create ()) ~fname:"f" in
        let ba = Bld.new_block b and bb = Bld.new_block b in
        Bld.switch_to b ba;
        let x = Bld.add b (output 1) in
        Bld.switch_to b bb;
        let y = Bld.add b (output 2) in
        Bld.terminate b (Ir.Types.Ret None);
        Bld.switch_to b ba;
        let z = Bld.add b (output 3) in
        Bld.terminate b (Ir.Types.Jmp bb);
        let f = Bld.finish b in
        let labels bid =
          List.map (fun (i : Ir.Types.instr) -> i.lbl) f.blocks.(bid).instrs
        in
        check_ints "a" [ x; z ] (labels ba);
        check_ints "b" [ y ] (labels bb));
    tc "finish rejects an unterminated block" (fun () ->
        let b = Bld.create (Ir.Prog.create ()) ~fname:"f" in
        Bld.switch_to b (Bld.new_block b);
        ignore (Bld.add b (output 1));
        check_bool "Diag.Error Ir" true
          (raises_ir_error (fun () -> ignore (Bld.finish b))));
    tc "switch_to rejects an unknown block" (fun () ->
        let b = Bld.create (Ir.Prog.create ()) ~fname:"f" in
        ignore (Bld.new_block b);
        check_bool "Diag.Error Ir" true
          (raises_ir_error (fun () -> Bld.switch_to b 1)));
  ]

(* A digest of the lowered IR's structure: per function its name, params,
   and each block's id, instructions (label and kind) and terminator.
   Printer text would not do: temp names come from a process-global
   counter, so they depend on what the process compiled before. *)
let lowered_digest (p : Ir.Prog.t) =
  let open Ir.Types in
  let funcs =
    Ir.Prog.fold_funcs
      (fun acc f ->
        ( f.fname,
          f.params,
          Array.map
            (fun b -> (b.bid, List.map (fun i -> (i.lbl, i.kind)) b.instrs, b.term))
            f.blocks )
        :: acc)
      [] p
  in
  Digest.to_hex
    (Digest.string (Marshal.to_string (List.rev funcs) [ Marshal.No_sharing ]))

(* Recorded before [Ir.Builder] kept blocks newest-first and in a vector. *)
let lowered_golden =
  [
    "164.gzip f7ce2ebaf62072e201cdf6b629cd5573";
    "175.vpr c9fbfaf1326d143d1a8283f5645acf8e";
    "176.gcc 5e4380257dce1ac1d908bb265df69685";
    "177.mesa 228810848a6bfddbeef08453af7fec42";
    "179.art 54dd0bab6ae7f0bbf82ba8fe956c685c";
    "181.mcf d6a7cc2fd49394932acf58c5faecf04b";
    "183.equake 19add5b2e2447d6fae7b90f4b98b1637";
    "186.crafty 7f607d8f76f5e25bdb08eaea4056f372";
    "188.ammp 5bcbcc112e146768826a80b6f0f37242";
    "197.parser b347f72824f19fd7a0bfe66c84dcb29f";
    "253.perlbmk a9394f75e41888057eadb4245eecab06";
    "254.gap 8d43855fd4d1946871b10e48f41aebf2";
    "255.vortex 1362fa06ff275ecfaef5b3e9e605a8d8";
    "256.bzip2 9f33c075d2e9eeed0b809e7eeef18f3c";
    "300.twolf 9137e5e1acfb963f91deee81f5368160";
  ]

let lowered_golden_tests =
  [
    tc "15 analogs at scale 5: lowered IR digests" (fun () ->
        let rows =
          List.map
            (fun (p : Workloads.Profile.t) ->
              p.pname ^ " "
              ^ lowered_digest (compile (Workloads.Spec2000.source ~scale:5 p)))
            Workloads.Spec2000.all
        in
        Alcotest.(check (list string)) "rows" lowered_golden rows);
  ]

let suites =
  [ ("ir.vec", vec_tests); ("ir.bitset", bitset_tests);
    ("ir.verify", verify_tests); ("ir.printer", printer_tests);
    ("ir.builder", builder_tests); ("ir.lowered-golden", lowered_golden_tests) ]
