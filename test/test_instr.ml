(* Instrumentation plans: the MSan baseline, the guided rules, and the two
   VFG-based optimizations. *)

open Helpers

let stats = static_stats

let variant_ladder src =
  List.map (fun v -> stats src v) Usher.Config.all_variants

let full_tests =
  [
    tc "MSan shadows every definition" (fun () ->
        let prog = front "int main() { int a = 1; int b = a + 2; print(b); return b; }" in
        let plan = Instr.Full.build prog in
        let s = Instr.Item.stats_of plan in
        (* each def gets a Set_var; the return-relay and param machinery add
           a couple more items *)
        check_bool "items cover defs" true (s.total_items >= 2));
    tc "MSan checks all critical operations" (fun () ->
        let src =
          "int main() { int x; int *p = &x; *p = 1;\n\
           if (*p > 0) { print(*p); } return 0; }"
        in
        let prog = front src in
        let plan = Instr.Full.build prog in
        let criticals = ref 0 in
        Ir.Prog.iter_instrs
          (fun _ _ i ->
            match i.Ir.Types.kind with
            | Ir.Types.Load _ | Ir.Types.Store _ -> incr criticals
            | _ -> ())
          prog;
        Ir.Prog.iter_terms
          (fun _ _ t ->
            match t.Ir.Types.tkind with
            | Ir.Types.Br (Ir.Types.Var _, _, _) -> incr criticals
            | _ -> ())
          prog;
        check_int "one check per critical" !criticals (Instr.Item.stats_of plan).checks);
    tc "constant branch conditions are not checked" (fun () ->
        let prog = front "int main() { int c = input(); while (c > 0) { c = c - 1; } return 0; }" in
        let plan = Instr.Full.build prog in
        check_bool "checks only for var conds" true
          ((Instr.Item.stats_of plan).checks >= 1));
  ]

let guided_tests =
  [
    tc "fully defined programs need no instrumentation" (fun () ->
        let s = stats "int main() { int a = 1; int b = a * 2; print(b); return b; }"
            Usher.Config.Usher_full in
        check_int "props" 0 s.propagations;
        check_int "checks" 0 s.checks);
    tc "undefined flows are instrumented" (fun () ->
        let s = stats "int main() { int u; if (u > 0) { print(1); } return 0; }"
            Usher.Config.Usher_full in
        check_bool "check present" true (s.checks >= 1));
    tc "static monotonicity across the variant ladder" (fun () ->
        let src =
          "int g;\n\
           int work(int *buf, int n) { int s = 0; int i;\n\
           for (i = 0; i < n; i = i + 1) { s = s + buf[i % 8]; }\n\
           if (s > g) { return s - g; } return s; }\n\
           int main() { int b[8]; int i; int u;\n\
           for (i = 0; i < 8; i = i + 1) { b[i] = i; }\n\
           if (b[0]) { u = 3; }\n\
           int r = work(b, 20) + u;\n\
           if (r > 2) { print(r); }\n\
           return 0; }"
        in
        match variant_ladder src with
        | [ msan; tl; tlat; opt1; full ] ->
          let ge (a : Instr.Item.stats) (b : Instr.Item.stats) =
            a.propagations >= b.propagations && a.checks >= b.checks
          in
          check_bool "msan >= tl" true (ge msan tl);
          check_bool "tl >= tlat" true (ge tl tlat);
          check_bool "tlat >= opt1" true (ge tlat opt1);
          check_bool "opt1 >= full" true (ge opt1 full)
        | _ -> Alcotest.fail "ladder");
    tc "TL keeps memory-side instrumentation" (fun () ->
        let src = "int main() { int x; int *p = &x; *p = 1; print(*p); return 0; }" in
        let prog, a = analyze src in
        ignore prog;
        let plan, _ = Usher.Pipeline.plan_for a Usher.Config.Usher_tl in
        let has_mem_write = ref false in
        Array.iter
          (List.iter (fun (it : Instr.Item.item) ->
               match it.act with
               | Instr.Item.Set_mem _ | Instr.Item.Set_mem_object _ ->
                 has_mem_write := true
               | _ -> ()))
          plan.items;
        check_bool "mem writes kept" true !has_mem_write);
    tc "top strong-update stores emit a constant shadow write" (fun () ->
        let src =
          "int main() { int c = input(); int x; int *p = &x;\n\
           if (c) { x = 0; }\n\
           *p = 1; print(*p); if (*p > 0) { print(2); } return 0; }"
        in
        let _, a = analyze src in
        let plan, _ = Usher.Pipeline.plan_for a Usher.Config.Usher_tl_at in
        let const_mem = ref 0 in
        Array.iter
          (List.iter (fun (it : Instr.Item.item) ->
               match it.act with
               | Instr.Item.Set_mem (_, Instr.Item.Mconst true) -> incr const_mem
               | _ -> ()))
          plan.items;
        ignore !const_mem (* zero is fine if nothing downstream needs it *));
    tc "parameters relay shadows through sigma_g" (fun () ->
        let src =
          "int use(int v) { if (v > 0) { return 1; } return 0; }\n\
           int main() { int u; int c = input(); if (c) { u = 1; }\n\
           print(use(u)); return 0; }"
        in
        let _, a = analyze src in
        let plan, _ = Usher.Pipeline.plan_for a Usher.Config.Usher_full in
        let relays = ref 0 in
        Array.iter
          (List.iter (fun (it : Instr.Item.item) ->
               match it.act with
               | Instr.Item.Set_global _ -> incr relays
               | _ -> ()))
          plan.items;
        check_bool "arg relay present" true (!relays >= 1);
        check_bool "entry item present" true
          (Instr.Item.entry_items plan "use" <> []));
    tc "Opt I collapses chains into conjunctions" (fun () ->
        let src =
          "int main() { int c = input(); int u; if (c) { u = 1; }\n\
           int t1 = u + 1; int t2 = t1 * 2; int t3 = t2 - u; int t4 = t3 + 5;\n\
           if (t4 > 0) { print(1); } return 0; }"
        in
        let _, a = analyze src in
        let r1 = Instr.Guided.build ~options:{ Instr.Guided.opt1 = false } a.vfg a.gamma in
        let r2 = Instr.Guided.build ~options:{ Instr.Guided.opt1 = true } a.vfg a.gamma in
        check_bool "simplified" true (r2.opt1_simplified >= 1);
        check_bool "fewer props" true
          ((Instr.Item.stats_of r2.plan).propagations
          < (Instr.Item.stats_of r1.plan).propagations));
    tc "Opt II eliminates dominated checks" (fun () ->
        let src =
          "int main() { int c = input(); int u; if (c) { u = 1; }\n\
           if (u > 0) { print(1); }\n\
           int w = u * 2;\n\
           if (w > 3) { print(2); }\n\
           int q = u - 1;\n\
           if (q > 4) { print(3); }\n\
           return 0; }"
        in
        let o1 = stats src Usher.Config.Usher_opt1 in
        let o2 = stats src Usher.Config.Usher_full in
        check_bool "checks reduced" true (o2.checks < o1.checks);
        check_bool "dominating check kept" true (o2.checks >= 1));
    tc "Opt II respects dominance" (fun () ->
        (* the two checks are in sibling branches: neither dominates, both stay *)
        let src =
          "int main() { int c = input(); int u; if (c) { u = 1; }\n\
           if (c > 3) { if (u > 0) { print(1); } }\n\
           else { if (u > 1) { print(2); } }\n\
           return 0; }"
        in
        let o1 = stats src Usher.Config.Usher_opt1 in
        let o2 = stats src Usher.Config.Usher_full in
        check_int "no elimination" o1.checks o2.checks);
  ]

(* [Pipeline.prepare] plans Usher_TL+AT, Usher_OptI and Usher from one
   planning context of the full graph; each must equal a one-variant
   [Guided.build] over the same analysis: items in order, entry bindings,
   relay slot and traversal counters. *)
let shared_matches_single ?knobs ~level src =
  let prog = front ~level src in
  let { Usher.Pipeline.analysis = a; plans; _ } = Usher.Pipeline.prepare ?knobs prog in
  let identity ((plan : Instr.Item.plan), traversal) =
    ( plan.items, entry_bindings plan, plan.ret_slot,
      Option.map
        (fun (r : Instr.Guided.result) -> (r.needed_nodes, r.opt1_simplified))
        traversal )
  in
  (* The distrust set as [Pipeline] builds it: its order is the overlay's. *)
  let distrusted =
    if Hashtbl.length a.distrusted = 0 then None
    else begin
      let t = Hashtbl.create (Hashtbl.length a.distrusted) in
      Hashtbl.iter (fun fn _ -> Hashtbl.replace t fn ()) a.distrusted;
      Some t
    end
  in
  let single opt1 gamma =
    let r = Instr.Guided.build ~options:{ Instr.Guided.opt1 } ?distrusted a.vfg gamma in
    identity (r.plan, Some r)
  in
  List.map
    (fun v -> identity (List.assoc v plans))
    Usher.Config.[ Usher_tl_at; Usher_opt1; Usher_full ]
  = [ single false a.gamma; single true a.gamma; single true a.opt2.gamma ]

let shared_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100
         ~name:"one shared context plans like three Guided.build calls (fuzz, O0+IM and O2)"
         QCheck.(make ~print:string_of_int Gen.(0 -- 100000))
         (fun seed ->
           let src = Audit.Gen.source ~seed () in
           shared_matches_single ~level:Optim.Pipeline.O0_IM src
           && shared_matches_single ~level:Optim.Pipeline.O2 src));
    tc "one shared context plans like Guided.build under a distrust set" (fun () ->
        let src = Audit.Gen.source ~seed:7 () in
        let helper =
          Ir.Prog.fold_funcs
            (fun acc (f : Ir.Types.func) -> if f.fname = "main" then acc else f.fname)
            "" (front src)
        in
        let knobs =
          { Usher.Config.default_knobs with quarantine = [ (helper, "test") ] }
        in
        check_bool "the helper is distrusted" true
          (Usher.Pipeline.distrusted_functions
             (Usher.Pipeline.analyze ~knobs (front src))
          = [ helper ]);
        check_bool "equal" true
          (shared_matches_single ~knobs ~level:Optim.Pipeline.O0_IM src));
  ]

let suites =
  [ ("instr.full", full_tests); ("instr.guided", guided_tests);
    ("instr.shared", shared_tests) ]
