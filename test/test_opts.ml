(* Must Flow-from Closures (Definition 2), Opt I internals, Opt II internals,
   and the cost model. *)

open Helpers

(* A compiled program and a closure walker in its main, over the
   program's index. *)
let mfc_of_main src =
  let prog = front src in
  let ix = Analysis.Index.build prog (fun _ _ -> ()) in
  (prog, (Vfg.Mfc.create ix, Analysis.Index.func_number ix "main"))

(* The walker after taking [v]'s closure in main. *)
let closure (m, main) v =
  Vfg.Mfc.walk m ~func:main v;
  m

(* The variable feeding the last branch condition of main (test programs put
   the interesting branch last; earlier ones belong to setup loops). *)
let first_branch_var prog =
  let r = ref None in
  Ir.Prog.iter_terms
    (fun f _ t ->
      if f.Ir.Types.fname = "main" then
        match t.Ir.Types.tkind with
        | Ir.Types.Br (Ir.Types.Var v, _, _) -> r := Some v
        | _ -> ())
    prog;
  match !r with Some v -> v | None -> Alcotest.fail "no branch in main"

let mfc_tests =
  [
    tc "Fig. 8: chains fold into one closure" (fun () ->
        (* z = (a+b) + (c+d) where a..d come out of memory: the closure's
           interior is the arithmetic; the sources are the four loads *)
        let prog, mfc = mfc_of_main
            "int main() { int buf[4]; int i;\n\
             for (i = 0; i < 4; i = i + 1) { buf[i] = i; }\n\
             int a = buf[0]; int b = buf[1]; int c = buf[2]; int d = buf[3];\n\
             int x = a + b; int y = c + d; int z = x + y;\n\
             if (z > 5) { print(1); } return 0; }"
        in
        let v = first_branch_var prog in
        let m = closure mfc v in
        check_bool "interior >= 4" true (Vfg.Mfc.interior m >= 4);
        check_int "four sources" 4 (List.length (Vfg.Mfc.var_sources m));
        check_bool "simplifiable" true (Vfg.Mfc.simplifiable m));
    tc "input() results are always-defined sources" (fun () ->
        let prog, mfc = mfc_of_main
            "int main() { int a = input(); int z = a + 1;\n\
             if (z > 5) { print(1); } return 0; }"
        in
        let v = first_branch_var prog in
        let m = closure mfc v in
        check_int "no var sources" 0 (List.length (Vfg.Mfc.var_sources m));
        check_bool "T source" true (Vfg.Mfc.has_defined_source m));
    tc "constants become T sources" (fun () ->
        let prog, mfc = mfc_of_main
            "int main() { int z = 1 + 2; if (z > 0) { print(1); } return 0; }"
        in
        let v = first_branch_var prog in
        let m = closure mfc v in
        check_int "no var sources" 0 (List.length (Vfg.Mfc.var_sources m));
        check_bool "has T source" true (Vfg.Mfc.has_defined_source m));
    tc "undef operands become F sources" (fun () ->
        let prog, mfc = mfc_of_main
            "int main() { int u; int z = u + 1; if (z > 0) { print(1); } return 0; }"
        in
        let v = first_branch_var prog in
        let m = closure mfc v in
        check_bool "F source" true (Vfg.Mfc.has_undef_source m));
    tc "loads and calls are sources, not interior" (fun () ->
        let prog, mfc = mfc_of_main
            "int main() { int a[2]; a[0] = input(); int z = a[0] * 2;\n\
             if (z > 0) { print(1); } return 0; }"
        in
        let v = first_branch_var prog in
        let m = closure mfc v in
        (* the load result is a variable source *)
        check_bool "one var source" true (List.length (Vfg.Mfc.var_sources m) = 1));
    tc "closures traverse address computations" (fun () ->
        let prog, mfc = mfc_of_main
            "int main() { int a[4]; a[0] = 1; int i = input();\n\
             int v = a[i & 3];\n\
             if (v > 0) { print(1); } return 0; }"
        in
        (* the load's pointer: Index_addr over (i & 3) — its closure must
           reach i's def *)
        let ptr = ref None in
        Ir.Prog.iter_instrs
          (fun _ _ ins ->
            match ins.Ir.Types.kind with
            | Ir.Types.Load (_, y) when !ptr = None -> ptr := Some y
            | _ -> ())
          prog;
        match !ptr with
        | Some p ->
          let m = closure mfc p in
          check_bool "interior through gep" true (Vfg.Mfc.interior m >= 2)
        | None -> Alcotest.fail "no load");
  ]

let opt2_tests =
  [
    tc "redirected nodes are counted" (fun () ->
        let _, a = analyze
            "int main() { int c = input(); int u; if (c) { u = 1; }\n\
             if (u > 0) { print(1); }\n\
             int w = u + 3; if (w > 1) { print(2); }\n\
             return 0; }"
        in
        check_bool "R > 0" true (a.opt2.redirected > 0));
    tc "opt2 gamma is at least as defined as the base gamma" (fun () ->
        let _, a = analyze
            "int main() { int c = input(); int u; if (c) { u = 1; }\n\
             if (u > 0) { print(1); }\n\
             int w = u + 3; if (w > 1) { print(2); }\n\
             return 0; }"
        in
        check_bool "fewer or equal bot nodes" true
          (Vfg.Resolve.undef_count a.opt2.gamma
          <= Vfg.Resolve.undef_count a.gamma));
    tc "detection still works after opt2 (dominating check fires)" (fun () ->
        let src =
          "int main() { int u;\n\
           if (u > 0) { print(1); }\n\
           int w = u + 3; if (w > 1) { print(2); }\n\
           return 0; }"
        in
        let gt = gt_uses src in
        check_int "two gt uses" 2 (List.length gt);
        (* full Usher may report only the dominating one for the second flow;
           soundness in the paper's sense = at least the dominating check
           fires; our Experiment-level checker requires all GT to be flagged,
           which holds because the first check IS one of the GT uses *)
        let det = detections src Usher.Config.Usher_full in
        check_bool "dominating check fires" true (det <> []));
  ]

(* How the program index [bld] read disagrees with a direct walk of the
   IR, in at most one line per function, label or variable: every label's
   function, block, position (max_int for a terminator) and kind, -1 for a
   label no block holds, every var's defining label and parameter
   position, and each function's number, which must also be the graph's
   and index Memory SSA's record of the function. *)
let index_disagreements (bld : Vfg.Build.t) =
  let open Ir.Types in
  let ix = Memssa.index bld.mssa and p = bld.prog in
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun e -> errs := e :: !errs) fmt in
  let held = Array.make (Ir.Prog.nlabels p) false in
  let def = Array.make (Ir.Prog.nvars p) (-1) and param = Array.make (Ir.Prog.nvars p) (-1) in
  let place fi (b : block) k l =
    held.(l) <- true;
    if
      Analysis.Index.label_func ix l <> fi
      || Analysis.Index.label_block ix l <> b.bid
      || Analysis.Index.label_pos ix l <> k
    then fail "l%d: not at function %d, block %d, position %d" l fi b.bid k
  in
  let nfuncs = ref 0 in
  Ir.Prog.iter_funcs
    (fun f ->
      let fi = !nfuncs in
      incr nfuncs;
      if
        Analysis.Index.func ix fi != f
        || Analysis.Index.func_number ix f.fname <> fi
        || Vfg.Graph.find_func bld.graph f.fname <> fi
        || (Memssa.func bld.mssa fi).fname <> f.fname
      then fail "%s: not function %d" f.fname fi;
      List.iteri (fun k v -> param.(v) <- k) f.params;
      Array.iter
        (fun (b : block) ->
          List.iteri
            (fun k (i : instr) ->
              place fi b k i.lbl;
              if Analysis.Index.kind ix i.lbl <> i.kind then fail "l%d: wrong kind" i.lbl;
              match Ir.Instr.def_of i.kind with Some d -> def.(d) <- i.lbl | None -> ())
            b.instrs;
          place fi b max_int b.term.tlbl)
        f.blocks)
    p;
  if Analysis.Index.nfuncs ix <> !nfuncs then fail "%d functions, not %d" (Analysis.Index.nfuncs ix) !nfuncs;
  Array.iteri
    (fun l h -> if (not h) && Analysis.Index.label_func ix l <> -1 then fail "l%d: held by no block" l)
    held;
  for v = 0 to Ir.Prog.nvars p - 1 do
    if Analysis.Index.def_label ix v <> def.(v) || Analysis.Index.param_pos ix v <> param.(v) then
      fail "v%d: defined at l%d, parameter %d" v def.(v) param.(v)
  done;
  List.rev !errs

(* Where the index's statement dominance and
   [Analysis.Dominance.label_dominates] over [label_positions] disagree,
   checked on every ordered pair of labels within each function: the
   first such pair of each function. *)
let dominance_disagreements (p : Ir.Prog.t) ix =
  let open Ir.Types in
  Ir.Prog.fold_funcs
    (fun errs f ->
      let dom = Analysis.Dominance.compute f in
      let pos = Analysis.Dominance.label_positions f in
      let labels =
        Array.of_list
          (Array.fold_right
             (fun b acc -> List.map (fun (i : instr) -> i.lbl) b.instrs @ (b.term.tlbl :: acc))
             f.blocks [])
      in
      let bad = ref "" in
      Array.iter
        (fun la ->
          Array.iter
            (fun lb ->
              if
                !bad = ""
                && Analysis.Index.dominates ix la lb
                   <> Analysis.Dominance.label_dominates dom pos la lb
              then bad := Printf.sprintf "%s: l%d, l%d" f.fname la lb)
            labels)
        labels;
      if !bad = "" then errs else !bad :: errs)
    [] p

let index_tests =
  [
    tc "15 analogs at O0+IM and O2: both builds' index is Memory SSA's and agrees with the IR" (fun () ->
        List.iter
          (fun (p : Workloads.Profile.t) ->
            List.iter
              (fun level ->
                let _, a = analog ~level p in
                if Memssa.index a.vfg.mssa != Memssa.index a.mssa
                   || Memssa.index a.vfg_tl.mssa != Memssa.index a.mssa
                then
                  Alcotest.failf "%s %s: a build reads another index than Memory SSA's"
                    p.pname (Optim.Pipeline.level_to_string level);
                List.iter
                  (fun (what, bld) ->
                    match index_disagreements bld with
                    | [] -> ()
                    | e :: _ ->
                      Alcotest.failf "%s %s %s: %s" p.pname
                        (Optim.Pipeline.level_to_string level) what e)
                  [ ("vfg", a.vfg); ("vfg-tl", a.vfg_tl) ])
              [ Optim.Pipeline.O0_IM; Optim.Pipeline.O2 ])
          Workloads.Spec2000.all);
    tc "164.gzip at O0+IM and O2: the index's dominance is label_dominates on every label pair"
      (fun () ->
        List.iter
          (fun level ->
            let prog, a = analog ~level Workloads.Spec2000.gzip in
            match dominance_disagreements prog (Memssa.index a.mssa) with
            | [] -> ()
            | e :: _ -> Alcotest.failf "%s: %s" (Optim.Pipeline.level_to_string level) e)
          [ Optim.Pipeline.O0_IM; Optim.Pipeline.O2 ]);
  ]

(* The dense Opt II against [Opt2_reference] (per-critical hash tables,
   its own closure walk, a deep copy) on generated programs at O0+IM and
   O2: the same R, the same Γ and the same rewired edges. The program
   index both builds read must agree with the IR there too, and its
   dominance with [Analysis.Dominance.label_dominates]. *)
let opt2_reference_prop seed =
  let src = Audit.Gen.source ~seed () in
  List.for_all
    (fun level ->
      let _, a = analyze ~level src in
      let g, r = Vfg.Opt2.rewired a.vfg in
      let g', r' = Opt2_reference.rewired a.vfg in
      let o = Vfg.Opt2.run a.vfg and o' = Opt2_reference.run a.vfg in
      r = r' && o.redirected = o'.redirected
      && Bytes.equal o.gamma.undef o'.gamma.undef
      && Opt2_reference.edge_multiset g = Opt2_reference.edge_multiset g'
      && index_disagreements a.vfg = []
      && index_disagreements a.vfg_tl = []
      && dominance_disagreements a.prog (Memssa.index a.mssa) = [])
    [ Optim.Pipeline.O0_IM; Optim.Pipeline.O2 ]

let opt2_reference_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"dense Opt II = hash-table reference on 100 generated programs"
         ~count:100
         (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100000))
         opt2_reference_prop);
  ]

let costmodel_tests =
  [
    tc "no shadow ops, no slowdown" (fun () ->
        let c = Runtime.Counters.create () in
        c.alu <- 1000;
        c.mem <- 100;
        check_bool "zero" true
          (abs_float (Runtime.Costmodel.slowdown_pct ~native:c ~instrumented:c ())
          < 1e-9));
    tc "slowdown grows with shadow work" (fun () ->
        let native = Runtime.Counters.create () in
        native.alu <- 1000;
        let light = Runtime.Counters.create () in
        light.alu <- 1000;
        light.sh_reg <- 100;
        let heavy = Runtime.Counters.create () in
        heavy.alu <- 1000;
        heavy.sh_reg <- 100;
        heavy.sh_mem <- 500;
        heavy.sh_check <- 200;
        let s1 = Runtime.Costmodel.slowdown_pct ~native ~instrumented:light () in
        let s2 = Runtime.Costmodel.slowdown_pct ~native ~instrumented:heavy () in
        check_bool "positive" true (s1 > 0.0);
        check_bool "monotone" true (s2 > s1));
    tc "shadow memory ops cost more than register ops" (fun () ->
        let native = Runtime.Counters.create () in
        native.alu <- 1000;
        let reg = Runtime.Counters.create () in
        reg.alu <- 1000;
        reg.sh_reg <- 300;
        let mem = Runtime.Counters.create () in
        mem.alu <- 1000;
        mem.sh_mem <- 300;
        check_bool "mem pricier" true
          (Runtime.Costmodel.slowdown_pct ~native ~instrumented:mem ()
          > Runtime.Costmodel.slowdown_pct ~native ~instrumented:reg ()));
  ]

(* Opt II's R, a digest of its Γ, the static stats of all five plans and
   one digest of the plans themselves, for every analog at scale 5. The
   plans come from [Pipeline.prepare], the path every experiment takes,
   and above O0+IM are folded and compressed as [Experiment.prepare] does.
   The digest covers, for each plan, its items in order, its sorted entry
   bindings, its relay slot, the two Compress counts and its traversal's
   needed_nodes and opt1_simplified. The stats were recorded before Opt
   II's rewiring and [Instr.Compress.run] were made linear, the digests
   before planning shared one context per graph, [Compress] became two
   worklists and fork 2 went; any change to the analysis or the plans
   shows up here. Each row also checks both graphs' cached condensations
   against the sort-based [Opt2_reference.condensation]. *)
let golden_row level (p : Workloads.Profile.t) =
  let prog = front ~level (Workloads.Spec2000.source ~scale:5 p) in
  let { Usher.Pipeline.analysis = a; plans; _ } = Usher.Pipeline.prepare prog in
  let lane (_, ((plan : Instr.Item.plan), traversal)) =
    let folded, removed =
      if level = Optim.Pipeline.O0_IM then (0, 0)
      else
        let folded = Instr.Compress.fold_constants plan in
        (folded, Instr.Compress.run plan)
    in
    let s = Instr.Item.stats_of plan in
    ( Printf.sprintf "%d/%d/%d" s.propagations s.checks s.total_items,
      ( plan.items, entry_bindings plan, plan.ret_slot, folded, removed,
        Option.map
          (fun (r : Instr.Guided.result) -> (r.needed_nodes, r.opt1_simplified))
          traversal ) )
  in
  (* Both graphs' cached condensations against the sort-based reference. *)
  List.iter
    (fun (what, g) ->
      if Vfg.Graph.condensation g <> Opt2_reference.condensation g then
        Alcotest.failf "%s %s: the %s condensation differs from the reference"
          p.pname (Optim.Pipeline.level_to_string level) what)
    [ ("vfg", a.vfg.graph); ("vfg-tl", a.vfg_tl.graph) ];
  let stats, identity = List.split (List.map lane plans) in
  Printf.sprintf "%s %s R=%d %s %s %s" p.pname
    (Optim.Pipeline.level_to_string level)
    a.opt2.redirected
    (Digest.to_hex (Digest.bytes a.opt2.gamma.undef))
    (String.concat " " stats)
    (Digest.to_hex (Digest.string (Marshal.to_string identity [ Marshal.No_sharing ])))

let golden =
  [
    "164.gzip O0+IM R=565 59ef4be10737bae4b04b05d18a7e77c6 4255/1020/5065 2954/421/2965 1503/279/1542 1101/279/1209 929/191/1005 5a6e31543e17d60976a49b5fa5eb55bb";
    "164.gzip O2 R=794 159ec6e821402caef2621a145fc421f1 3088/431/3093 2648/421/2733 1174/279/1334 967/279/1111 823/191/907 bd7063fef5df0e537188028731f669c9";
    "175.vpr O0+IM R=1100 839a1be5ddd02baa9fac3dbde0f52779 8094/1897/9574 5647/776/5591 2773/523/2840 2008/523/2227 1676/353/1833 a68bd8dd46e585144b9990dfee9b7ba3";
    "175.vpr O2 R=1563 3bce3b8246096021cb2fc5cfc12169c0 6008/791/5904 5102/776/5178 2164/523/2456 1767/523/2048 1489/353/1654 4aa6e4b9eb2aae2b3ec866f370b66988";
    "176.gcc O0+IM R=7665 d976a81fdec137aa82b1e7633ca5e5ff 50211/11890/59197 35974/5013/35223 18652/3567/18988 13248/3567/14817 10904/2387/12069 b6e9433a51891630d76b836f995da4fd";
    "176.gcc O2 R=10559 7a240fbf87f96e70096e8f636456a35b 38412/5050/37157 32616/5013/32691 14463/3567/16345 11647/3567/13619 9691/2387/10871 97e4dcbd7fecb5540ef5cc374d2bf1be";
    "177.mesa O0+IM R=3917 2a7395b97a3d82447a6815a592b3b994 25815/6052/30302 18516/2566/18085 9406/1803/9585 6638/1803/7433 5442/1201/6031 8d88e0890d1e0310b360fc25bbf7eba6";
    "177.mesa O2 R=5401 b548a02d4d52036387a8b4b05dc066ce 19748/2582/19045 16774/2566/16762 7279/1803/8214 5836/1803/6832 4838/1201/5430 9e93f5aafb7c63986686132fe20cd3fd";
    "179.art O0+IM R=88 e8d499969b2f90eb8254f28bf1ac3361 1118/263/1335 711/110/760 284/51/295 218/51/231 190/35/195 70c05eefc1b1fe99e8b18a134aa90cb5";
    "179.art O2 R=138 d940514e103ffa43d6fe8d7fe276149a 700/117/771 615/110/685 228/51/258 192/51/212 168/35/176 3e196c02714e7b6d9e96551d6a6b5a8f";
    "181.mcf O0+IM R=146 b90404117d2c69952a1a77f53ab931f9 1650/431/2074 1076/157/1142 304/59/309 204/59/233 164/37/183 44d183bc86dc00173941c0230d32ffa0";
    "181.mcf O2 R=226 f211c962a72400e0de04fc1ba1e24bc4 1090/163/1165 950/157/1041 238/59/267 180/59/215 146/37/165 df72176799ce9467c2a05cea3c482a34";
    "183.equake O0+IM R=128 9aab88424e0cdf17ce88092aeb453856 1360/321/1620 879/138/935 367/69/382 279/69/304 239/47/254 691c5f10b22bc3cc31555a72555bb1c5";
    "183.equake O2 R=190 09b1eb684007f0c8641419876fba76f8 873/146/955 764/138/847 289/69/334 246/69/280 212/47/230 183eada93aed42db36656d18a0acac7d";
    "186.crafty O0+IM R=1248 34cd786277504c7d199bb0beab7f7151 9464/2257/11295 6584/892/6512 3156/593/3234 2288/593/2527 1914/402/2084 a1f52a06313ac41d308469e12d749f85";
    "186.crafty O2 R=1799 49fedb2ce29b75625114d05ac2509823 7021/906/6880 5961/892/6042 2453/593/2783 2010/593/2322 1697/402/1879 e834d02078b4b91d1fefbf0cfe4e33cc";
    "188.ammp O0+IM R=849 51451e73b212a32bf81795e5e9fecfe3 6366/1597/7780 4437/609/4448 2131/398/2182 1551/398/1711 1301/271/1416 8fea893fcc088c4a4d62c34f3ecd7eac";
    "188.ammp O2 R=1206 7315ad984a642b612251b0b20ea93782 4706/625/4691 4015/609/4129 1666/398/1887 1365/398/1573 1156/271/1278 92971944ae7ead327081966f441d78ef";
    "197.parser O0+IM R=739 045fe6e9642b6b3fbee2fda282018911 5697/1374/6848 3923/546/3934 1961/364/2018 1428/364/1582 1204/248/1314 89fe1685117a2ab8b2b59bd62aef7e3e";
    "197.parser O2 R=1054 561c9e0c0f9b0d9893b0d76b641d902b 4165/566/4176 3537/546/3643 1539/364/1748 1258/364/1454 1070/248/1186 8404e480386118504b54f582366f67e9";
    "253.perlbmk O0+IM R=5565 29c226ed53a92bbe7959b2b6945922bd 36628/8632/43072 26284/3662/25747 13974/2641/14248 10017/2641/11134 8311/1784/9137 8d7d227fda756159ed62f1ea7e4e4c8a";
    "253.perlbmk O2 R=7640 a425b9e35b91459d696eb812788a1649 27962/3692/27093 23797/3662/23871 10879/2641/12269 8804/2641/10232 7381/1784/8235 e0e00105f0916c228a0092489b93420a";
    "254.gap O0+IM R=4612 f29eab6cbe9e9a04dcb1bd0794ec6e79 30407/7095/35616 21813/3020/21315 11550/2178/11778 8238/2178/9172 6826/1468/7518 cba8ade3b0fdcdf222e75a4382f68af4";
    "254.gap O2 R=6353 4f3f4cf2a0b3fd4b5d2e427e56837aee 23239/3048/22453 19754/3020/19756 8984/2178/10133 7244/2178/8432 6066/1468/6778 6f6aeb1f7194d7ae3c22cdde2214ada9";
    "255.vortex O0+IM R=4347 bb9670facd388c2d7dda47a0805f1974 28925/6838/34096 20754/2869/20322 10842/2048/11047 7713/2048/8600 6385/1380/7044 40753e0f2a74f72bcb8e69df6fe06288";
    "255.vortex O2 R=5990 aa37948a9f909eeb3d811e95122846fa 22092/2896/21394 18808/2869/18851 8419/2048/9506 6777/2048/7904 5669/1380/6348 a1c24ac770c64f90141f767b49709b45";
    "256.bzip2 O0+IM R=310 5ddb22046011de139044658458895524 2690/684/3308 1819/262/1869 861/161/895 650/161/714 556/112/601 e4988104f549debb88ced6bbe299fe94";
    "256.bzip2 O2 R=451 d11f00c37f5680e0a9a9acbc7b2dada0 1887/272/1948 1624/262/1721 678/161/778 569/161/656 490/112/543 1a793e9f68366f19ab2b9b69c791d544";
    "300.twolf O0+IM R=1322 2a5ba19518423e1854d92b5e596468f6 9304/2209/11028 6544/918/6485 3339/631/3415 2404/631/2671 2000/425/2193 be9197a80166c55423c12d838e2b6ba8";
    "300.twolf O2 R=1845 f4db9acea801bdedfdfbeba48b2c386d 6946/933/6833 5907/918/6004 2601/631/2948 2115/631/2456 1777/425/1978 c466ebbab44f5cb3f42a821929f1c1d7";
  ]

(* An MD5 of each analog's SSA IR at scale 5 after [Pipeline.front]
   ([Helpers.ir_digest]: functions, globals, the variable table with the
   temporaries' names masked, and the label counter). Recorded before the
   lexer, the parser's token stream, temporary naming and mem2reg were
   made dense. *)
let frontend_golden =
  [
    "164.gzip O0+IM 881462fc177f734906521053ae035d52";
    "164.gzip O2 976b7c2aee53f24f28f27cf6fe0bf14e";
    "175.vpr O0+IM 80de3f77fff3f49b2cdfeddf0e69727d";
    "175.vpr O2 cc99bc3352846c9fcba48ca2a2a413e7";
    "176.gcc O0+IM d78139c0c0429d63271f418bc460d8b6";
    "176.gcc O2 c52c82211e2f8110c8a0ba90a79ccb41";
    "177.mesa O0+IM dd8acab6146289e3a2fa44b539b7c059";
    "177.mesa O2 1e54461e0a83c0351ab4dbb0deb50cf4";
    "179.art O0+IM 4b3e9964851970ff53cf373a6066a29f";
    "179.art O2 0380fbd8d45aa1fd7325d966e6506111";
    "181.mcf O0+IM fcb64398bfa88d352be0369eb2e0cc7e";
    "181.mcf O2 c6daeeb2b862c2f2456ee0eb9b9d0449";
    "183.equake O0+IM ae60f10a76b1a47d9333c668d7b1e063";
    "183.equake O2 ac90191320db44d059808c24245f6ca3";
    "186.crafty O0+IM faa0c294a8b86e1d0cea461b2e75532f";
    "186.crafty O2 6e39da5579f4dd8f9e34ab222bb137b5";
    "188.ammp O0+IM d2e5aeb5be087ac40deb386aa5408603";
    "188.ammp O2 9aa2e27f754d54f83eee078105988182";
    "197.parser O0+IM 7af37e529d9fbccd4977f04db9253b01";
    "197.parser O2 071c827b70162551342d0cffd79dc803";
    "253.perlbmk O0+IM 5bd9063991c122042d52117c8d54c00b";
    "253.perlbmk O2 4c9777aa75b33dd748af9471c6c60204";
    "254.gap O0+IM 2657ee6c8434e197208f47006a776c39";
    "254.gap O2 34aaec23c29811161304f566c76da498";
    "255.vortex O0+IM 1a68c995b5ce632b878872dc4dd65e26";
    "255.vortex O2 8e5eeee21d19c04e403c8a1cb87ae4da";
    "256.bzip2 O0+IM b4441874f54d0b47e0e12b3ad9f39436";
    "256.bzip2 O2 dcf3665496654e8f745b600a9f328ce0";
    "300.twolf O0+IM b97c60a58ad43aaf34f6279cd203fe2e";
    "300.twolf O2 d2e4a60ae7567b27758d35bce59b5e85";
  ]

(* The same MD5s at O1, recorded before the scalar passes (constant and
   copy propagation, CSE, DCE) were made dense. *)
let frontend_golden_o1 =
  [
    "164.gzip O1 b11f7b037870818d8f590570cbc771fe";
    "175.vpr O1 746c99f0b8d0306881bedff88f0a16e3";
    "176.gcc O1 27e6389a74aa821fcb304baddd7651e2";
    "177.mesa O1 ada2b0ce9e17c189e91723c0e25ef7cb";
    "179.art O1 99ad369f4ea17aee5e4d11e8203f6a99";
    "181.mcf O1 a6c4b2e2a178b117d307740293fc37b2";
    "183.equake O1 e0f99d7692e014baed5317630867c941";
    "186.crafty O1 a7c9383eca70ef21b7f85169658743a1";
    "188.ammp O1 ebc934ee5a87053548dcbb976f979f78";
    "197.parser O1 a65d11c203e553addba6f0697091ddbf";
    "253.perlbmk O1 84e4e079d7aafd7105116efef11ab50c";
    "254.gap O1 e34f8ccda0eb01875e1da3068eaea271";
    "255.vortex O1 47a2dfb1dfb68cfc858039e440de5078";
    "256.bzip2 O1 f56682bcb60112af8ea109f6028e71ca";
    "300.twolf O1 b5032488d8794878299ba8c1946f1471";
  ]

(* One MD5 per analog and level over both value-flow graphs at scale 5
   ([Helpers.vfg_digest] of [vfg], then of [vfg-tl]). Recorded before the
   graph's nodes and edges were stored as ints and the builder's
   per-function tables became per-program arrays; any change to what the
   builder produces, or to the order it produces it in, shows up here. *)
let vfg_golden_row level (p : Workloads.Profile.t) =
  let prog = front ~level (Workloads.Spec2000.source ~scale:5 p) in
  let a = Usher.Pipeline.analyze prog in
  Printf.sprintf "%s %s %s" p.pname
    (Optim.Pipeline.level_to_string level)
    (Digest.to_hex (Digest.string (vfg_digest a.vfg ^ vfg_digest a.vfg_tl)))

let vfg_golden =
  [
    "164.gzip O0+IM a7aea155cc4113e7c07f8c747210abfc";
    "164.gzip O2 7cbbba4625ac40d0657d323aa66bd97c";
    "175.vpr O0+IM 09dbc1570a12390babc7f9ecb5ebdedd";
    "175.vpr O2 ae5911cbd2dac18f97db40d13e0e2521";
    "176.gcc O0+IM bb64a68e75c94468a758134532aceda1";
    "176.gcc O2 89029f69c8aeecade16b086c05e25178";
    "177.mesa O0+IM 0228c79e63446dd8d2e574b3ddd9acbc";
    "177.mesa O2 20add106705b28bef2a682884e9385f0";
    "179.art O0+IM 697bc2b2d4ff46eda29f342fdb4d397c";
    "179.art O2 aab38fa0a1b05e1e92d6b9f736e000a1";
    "181.mcf O0+IM e98bdd42047e586b5b221e265f433acf";
    "181.mcf O2 f635abc58539d5d1206fa797a71e5f71";
    "183.equake O0+IM 5192aa7fef621ace96e0a442248e6c9b";
    "183.equake O2 125d026d08115d444af1306f66f117ae";
    "186.crafty O0+IM 0c9043f2b699dcdb1a2795750a9b1107";
    "186.crafty O2 f81cee9ae52bbb1d13c3cc581fcfaf2d";
    "188.ammp O0+IM 225a56f2e004a651ede6316aa34c2dc8";
    "188.ammp O2 1f3a411cffda83d8df3ee966f086ebde";
    "197.parser O0+IM e9d6c823c074178a68754aa5a911d737";
    "197.parser O2 b66f54ad0c16f679359647849a0ab40a";
    "253.perlbmk O0+IM 86d4b38792ed7012f8eeaffb5f9318a0";
    "253.perlbmk O2 db61ca81679ac6e579717b069db33681";
    "254.gap O0+IM 03204a34b71c3682c3c391763fb05f18";
    "254.gap O2 9506e324359099a73b416453b35491d1";
    "255.vortex O0+IM 08ac2c76653ad3d2be39e5cc731c6ad5";
    "255.vortex O2 c467a5a02a7ac1e9c57fd4cc4994704e";
    "256.bzip2 O0+IM d363fca8172921c416ab71a2152f1624";
    "256.bzip2 O2 72f99d710873f21d5f2b0a57d8c74d39";
    "300.twolf O0+IM efd1dbb0a79d4d34a57be78f69d3f5a9";
    "300.twolf O2 62406708ea2a1bc3485492ce9494b29f";
  ]

(* A dump [s] with the number of every temporary's name dropped (a
   ["t"] no identifier character precedes, followed by digits) and each
   run of blanks and newlines made one space. Temporaries are named from
   a process-global counter (see [Helpers.ir_digest]), and the width of
   their names moves the dump's line breaks. *)
let mask_temps s =
  let n = String.length s in
  let b = Buffer.create n in
  let ident c =
    c = '_' || c = '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  let digit i = i < n && s.[i] >= '0' && s.[i] <= '9' in
  let blank i = i < n && (s.[i] = ' ' || s.[i] = '\n') in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    incr i;
    if blank (!i - 1) then begin
      Buffer.add_char b ' ';
      while blank !i do incr i done
    end
    else begin
      Buffer.add_char b c;
      if c = 't' && (!i = 1 || not (ident s.[!i - 2])) then
        while digit !i do incr i done
    end
  done;
  Buffer.contents b

(* One MD5 per analog and level of [Memssa.to_string] at scale 5, over
   Memory SSA built directly on the pointer analysis, with temporaries'
   numbers masked. Recorded before Memory SSA's per-function hash tables
   became arrays by label and by block; any change to an annotation, a
   version or a memory phi, or to their order, shows up here. *)
let memssa_golden_row level (p : Workloads.Profile.t) =
  let prog = front ~level (Workloads.Spec2000.source ~scale:5 p) in
  let pa = Analysis.Andersen.run prog in
  let cg = Analysis.Callgraph.build prog pa in
  let mr = Analysis.Modref.compute prog pa cg in
  Printf.sprintf "%s %s %s" p.pname
    (Optim.Pipeline.level_to_string level)
    (Digest.to_hex
       (Digest.string (mask_temps (Memssa.to_string (Memssa.build prog pa cg mr)))))

let memssa_golden =
  [
    "164.gzip O0+IM 2171be2233c953c6fada7a2280438a32";
    "164.gzip O2 36630561ad1eadec26de9eed7ba5a55b";
    "175.vpr O0+IM 070a149865d70bfb508f36dfcb9dba17";
    "175.vpr O2 a473720ff5c8a6cfab0cd741fc08039f";
    "176.gcc O0+IM 300483f4dea21a231e1a95faae369c60";
    "176.gcc O2 110e7aa9732a4ca0d82bc0698e1c45fe";
    "177.mesa O0+IM fb735724a29b18d2edcc979ec7e20845";
    "177.mesa O2 af530d61959f5dd29373759b79baff02";
    "179.art O0+IM e93865a37dfdfb46b54503d7aeb4af53";
    "179.art O2 4531b3554b8b530f105b750325b08aeb";
    "181.mcf O0+IM 3ecd74d6dd937ecc99ccae7fac6f913c";
    "181.mcf O2 8c19df16fb8d5f869f430ddde311ec15";
    "183.equake O0+IM 1fafc9421665d1813320d5bb56927f30";
    "183.equake O2 a923bb6038fcb07c6ccb8d34e9ea21f2";
    "186.crafty O0+IM 47822ada7ccea2ab4ebde06826a1c5b9";
    "186.crafty O2 279a94cb2ea8ced26b9c2c16b98689a2";
    "188.ammp O0+IM de94f43416525664ff7274428ab9610f";
    "188.ammp O2 69f001a7e519e9574909128b5745c55a";
    "197.parser O0+IM e3ea17c9d1d4ab0a7b4505a487b11df7";
    "197.parser O2 40de2cb4bb1b5fe0857f4c1785af9a5f";
    "253.perlbmk O0+IM bba63465e016a2ad41c9dfdb88d18b9b";
    "253.perlbmk O2 8197b958185af7f1d1ee9aa83a81b57b";
    "254.gap O0+IM 9d22c4e4d01f924906b931386dbc78ce";
    "254.gap O2 065ba07f42251cd3d5d366fcf840a7cb";
    "255.vortex O0+IM 8f11ad269e573214ce4039de5ea5bbb8";
    "255.vortex O2 06ae47926b0b8f979429ee6eb287cbe1";
    "256.bzip2 O0+IM 9b04ee82fdf8343ac70640ca8948a9dd";
    "256.bzip2 O2 5737d68285b4151d53cf7bfe4f2c46fe";
    "300.twolf O0+IM 2740966c7147fa3d5288f415c4b738e9";
    "300.twolf O2 901054c1c81258f7ec098945912bea28";
  ]

(* The Memory SSA fault path: [memssa:FN=crash] on the function with the
   most labels (the first such, in program order), at O0+IM and scale 5.
   One MD5 of the ladder's events, the distrusted set, Γ, Γ_TL, Opt II's
   Γ and all five plans (as in [golden_row]). Recorded before Memory SSA
   was stored in arrays; the faulted function's labels must read no
   annotation, so nothing the fault left half-built may leak. *)
let memssa_fault_row (p : Workloads.Profile.t) =
  let prog = front (Workloads.Spec2000.source ~scale:5 p) in
  let fn, _ =
    Ir.Prog.fold_funcs
      (fun (best, n) (f : Ir.Types.func) ->
        let m =
          Array.fold_left
            (fun m (b : Ir.Types.block) -> m + 1 + List.length b.instrs)
            0 f.blocks
        in
        if m > n then (f.fname, m) else (best, n))
      ("", -1) prog
  in
  let knobs =
    {
      Usher.Config.default_knobs with
      inject = [ { Usher.Config.fphase = Diag.Memssa; ffunc = Some fn; fkind = Usher.Config.Crash } ];
    }
  in
  let { Usher.Pipeline.analysis = a; plans; plan_events; _ } = Usher.Pipeline.prepare ~knobs prog in
  let lane (_, ((plan : Instr.Item.plan), traversal)) =
    ( plan.items, entry_bindings plan, plan.ret_slot,
      Option.map
        (fun (r : Instr.Guided.result) -> (r.needed_nodes, r.opt1_simplified))
        traversal )
  in
  let identity =
    ( List.map Usher.Degrade.to_string (!(a.events) @ plan_events),
      Usher.Pipeline.distrusted_functions a,
      (a.gamma.undef, a.gamma_tl.undef, a.opt2.gamma.undef),
      List.map lane plans )
  in
  Printf.sprintf "%s memssa:%s=crash %s" p.pname fn
    (Digest.to_hex (Digest.string (Marshal.to_string identity [ Marshal.No_sharing ])))

let memssa_fault_golden =
  [
    "164.gzip memssa:main=crash 0d7d2947e7e4d602a2fae1b8f220ce76";
    "197.parser memssa:main=crash c43912f530cf60c75b54d3202b833be1";
  ]

let golden_tests =
  [
    tc "15 analogs at O0+IM and O2: vfg and vfg-tl graph digests" (fun () ->
        let rows =
          List.concat_map
            (fun p ->
              List.map
                (fun level -> vfg_golden_row level p)
                [ Optim.Pipeline.O0_IM; Optim.Pipeline.O2 ])
            Workloads.Spec2000.all
        in
        Alcotest.(check (list string)) "rows" vfg_golden rows);
    tc "15 analogs at O0+IM and O2: SSA IR digests" (fun () ->
        let rows =
          List.concat_map
            (fun (p : Workloads.Profile.t) ->
              List.map
                (fun level ->
                  Printf.sprintf "%s %s %s" p.pname
                    (Optim.Pipeline.level_to_string level)
                    (ir_digest (front ~level (Workloads.Spec2000.source ~scale:5 p))))
                [ Optim.Pipeline.O0_IM; Optim.Pipeline.O2 ])
            Workloads.Spec2000.all
        in
        Alcotest.(check (list string)) "rows" frontend_golden rows);
    tc "15 analogs at O0+IM and O2: R, opt2 gamma and plan stats" (fun () ->
        let rows =
          List.concat_map
            (fun p ->
              List.map
                (fun level -> golden_row level p)
                [ Optim.Pipeline.O0_IM; Optim.Pipeline.O2 ])
            Workloads.Spec2000.all
        in
        Alcotest.(check (list string)) "rows" golden rows);
    tc "15 analogs at O1: SSA IR digests" (fun () ->
        let rows =
          List.map
            (fun (p : Workloads.Profile.t) ->
              Printf.sprintf "%s O1 %s" p.pname
                (ir_digest
                   (front ~level:Optim.Pipeline.O1 (Workloads.Spec2000.source ~scale:5 p))))
            Workloads.Spec2000.all
        in
        Alcotest.(check (list string)) "rows" frontend_golden_o1 rows);
    tc "15 analogs at O0+IM and O2: Memory SSA digests" (fun () ->
        let rows =
          List.concat_map
            (fun p ->
              List.map
                (fun level -> memssa_golden_row level p)
                [ Optim.Pipeline.O0_IM; Optim.Pipeline.O2 ])
            Workloads.Spec2000.all
        in
        Alcotest.(check (list string)) "rows" memssa_golden rows);
    tc "164.gzip and 197.parser under memssa:FN=crash: events, Γs and plans" (fun () ->
        let rows =
          List.map
            (fun name -> memssa_fault_row (Workloads.Spec2000.find name))
            [ "164.gzip"; "197.parser" ]
        in
        Alcotest.(check (list string)) "rows" memssa_fault_golden rows);
  ]

(* The full and the top-level-only VFG of an analysis, built again. *)
let build_both_vfgs prog (a : Usher.Pipeline.analysis) =
  List.iter
    (fun track_memory ->
      let config = { Vfg.Build.track_memory; semi_strong = true } in
      ignore (Vfg.Build.build ~config prog a.pa a.cg a.mr a.mssa))
    [ true; false ]

(* Both passes were once quadratic: Opt II refiltered T's dependents list
   on every rewiring, and Compress rescanned the plan once per link of the
   longest dead chain. The linear versions allocate a few Mwords here; the
   quadratic ones 240 and 670. Minor-heap words are deterministic and do
   not depend on the input scale. *)
let alloc_tests =
  [
    tc "Opt II on 176.gcc allocates under 40 Mwords" (fun () ->
        let _, a = analog ~level:Optim.Pipeline.O0_IM Workloads.Spec2000.gcc in
        let mw = minor_mwords (fun () -> ignore (Vfg.Opt2.run a.vfg)) in
        check_bool (Printf.sprintf "%.1f Mwords < 40" mw) true (mw < 40.0));
    (* Opt II once deep-copied the graph, including the hash table of its
       node ids, and built a hash table per critical: 8.8 Mwords here,
       minor and direct major. The dense version copies only the edges and
       marks closures in stamped arrays. *)
    tc "Opt II on 176.gcc allocates under 6.5 Mwords, minor and major" (fun () ->
        let _, a = analog ~level:Optim.Pipeline.O0_IM Workloads.Spec2000.gcc in
        let minor, major = heap_words (fun () -> ignore (Vfg.Opt2.run a.vfg)) in
        let mw = (minor +. major) /. 1e6 in
        check_bool (Printf.sprintf "%.2f Mwords < 6.5" mw) true (mw < 6.5));
    (* The graph, resolution's FIFO and At table and Andersen's worklist
       once started at 512 to 1024 slots whatever the program, and every
       array above 256 words goes straight to the major heap: 26,138 words
       for this 100-node program. *)
    tc "analyzing a small generated program allocates under 1,500 major words"
      (fun () ->
        let src = Audit.Gen.source ~size:3 ~seed:(Audit.Gen.campaign_seed ~seed:1 0) () in
        let prog = front ~level:Optim.Pipeline.O0_IM src in
        ignore (Usher.Pipeline.analyze prog);
        let _, major = heap_words (fun () -> ignore (Usher.Pipeline.analyze prog)) in
        check_bool (Printf.sprintf "%.0f words < 1500" major) true (major < 1500.0));
    tc "Compress on 253.perlbmk at O2 allocates under 40 Mwords" (fun () ->
        let level = Optim.Pipeline.O2 in
        let _, a = analog ~level Workloads.Spec2000.perlbmk in
        let plans = folded_plans ~level a in
        let mw =
          minor_mwords (fun () ->
              List.iter (fun plan -> ignore (Instr.Compress.run plan)) plans)
        in
        check_bool (Printf.sprintf "%.1f Mwords < 40" mw) true (mw < 40.0));
    (* Folding once rebuilt every item of the plan and kept its defs and
       demotions in hash tables: 5.09 Mwords here. The worklist keeps
       them in reused scratch arrays and rebuilds only the lists it
       changes. *)
    tc "fold_constants on 253.perlbmk at O2 allocates under 2.5 Mwords" (fun () ->
        let level = Optim.Pipeline.O2 in
        let _, a = analog ~level Workloads.Spec2000.perlbmk in
        let plans =
          List.map (fun v -> fst (Usher.Pipeline.plan_for a v)) Usher.Config.all_variants
        in
        let mw =
          minor_mwords (fun () ->
              List.iter (fun plan -> ignore (Instr.Compress.fold_constants plan)) plans)
        in
        check_bool (Printf.sprintf "%.2f Mwords < 2.5" mw) true (mw < 2.5));
    (* Attaching once built every lane's action list at every label, even
       an empty one, and wove them as lists: 9.45 Mwords here. *)
    tc "attach_lanes of 176.gcc's five plans allocates under 4.5 Mwords" (fun () ->
        let prog, a = analog ~level:Optim.Pipeline.O0_IM Workloads.Spec2000.gcc in
        let plans =
          List.map (fun v -> fst (Usher.Pipeline.plan_for a v)) Usher.Config.all_variants
        in
        let base = Runtime.Interp.compile_base prog in
        let mw = minor_mwords (fun () -> ignore (Runtime.Interp.attach_lanes base plans)) in
        check_bool (Printf.sprintf "%.2f Mwords < 4.5" mw) true (mw < 4.5));
    (* Every integer result once allocated a boxed value and every call a
       frame of boxed registers: 17.2 Mwords here. Values now live in
       unboxed planes and frames in one register stack. *)
    tc "run_lanes of 164.gzip's five plans allocates under 0.5 Mwords, minor and direct major"
      (fun () ->
        let level = Optim.Pipeline.O0_IM in
        let prog, a = analog ~scale:750 ~level Workloads.Spec2000.gzip in
        let base = Runtime.Interp.compile_base prog in
        let cp = Runtime.Interp.attach_lanes base (folded_plans ~level a) in
        let minor, major = heap_words (fun () -> ignore (Runtime.Interp.run_lanes cp)) in
        let mw = (minor +. major) /. 1e6 in
        check_bool (Printf.sprintf "%.2f Mwords < 0.5" mw) true (mw < 0.5));
    (* Every edge insert once hashed its (src, dst, kind) triple into a
       global table: 4.2 Mwords here. Scanning the source's successor
       list allocates nothing. *)
    tc "VFG build on 176.gcc allocates under 4 Mwords" (fun () ->
        let prog, a = analog ~level:Optim.Pipeline.O0_IM Workloads.Spec2000.gcc in
        let config = { Vfg.Build.track_memory = true; semi_strong = true } in
        let mw =
          minor_mwords (fun () ->
              ignore (Vfg.Build.build ~config prog a.pa a.cg a.mr a.mssa))
        in
        check_bool (Printf.sprintf "%.1f Mwords < 4" mw) true (mw < 4.0));
    (* Both builds once interned every node through a polymorphic hash
       table, kept each edge as a boxed (node, kind) pair on two lists, and
       hashed function names and scanned whole functions per call or store:
       6.48 Mwords here, 70 words per node. Nodes and edges are now a few
       ints in arrays sized up front (0.93). *)
    tc "building both VFGs of 176.gcc at scale 30 allocates under 3.2 Mwords" (fun () ->
        let prog, a = analog ~scale:30 ~level:Optim.Pipeline.O0_IM Workloads.Spec2000.gcc in
        let mw = minor_mwords (fun () -> build_both_vfgs prog a) in
        check_bool (Printf.sprintf "%.2f Mwords < 3.2" mw) true (mw < 3.2));
    (* Memory SSA once kept its annotations in hash tables per function,
       and a table per tracked location to place phis, and each graph
       build indexed the program again: 6.248 Mwords here (3.174 minor).
       One index built with Memory SSA, and arrays by label and by block:
       5.667 (2.487 minor). *)
    tc "Memory SSA and both VFGs of 176.gcc at scale 30 allocate under 6 Mwords, minor and direct major"
      (fun () ->
        let prog, a = analog ~scale:30 ~level:Optim.Pipeline.O0_IM Workloads.Spec2000.gcc in
        let minor, major =
          heap_words (fun () ->
              let mssa = Memssa.build prog a.pa a.cg a.mr in
              List.iter
                (fun track_memory ->
                  let config = { Vfg.Build.track_memory; semi_strong = true } in
                  ignore (Vfg.Build.build ~config prog a.pa a.cg a.mr mssa))
                [ true; false ])
        in
        let mw = (minor +. major) /. 1e6 in
        check_bool (Printf.sprintf "%.3f Mwords < 6" mw) true (mw < 6.0));
    (* The same two builds of a 100-node generated program once allocated
       19,274 words (6,141 now). *)
    tc "building both VFGs of a small generated program allocates under 9,600 words"
      (fun () ->
        let src = Audit.Gen.source ~size:3 ~seed:(Audit.Gen.campaign_seed ~seed:1 0) () in
        let prog = front ~level:Optim.Pipeline.O0_IM src in
        let a = Usher.Pipeline.analyze prog in
        let w = 1e6 *. minor_mwords (fun () -> build_both_vfgs prog a) in
        check_bool (Printf.sprintf "%.0f words < 9600" w) true (w < 9600.0));
    (* Planning's context once kept the instruction at every label in a
       [Some] box and a var-indexed table of parameter positions, and
       [Ir.Prog.iter_instrs] allocated a closure per block: 185,571 words
       here. The build's program index answers both, and the context
       builds only the call sites of each callee (18,213). *)
    tc "Guided.context over 176.gcc's full graph allocates under 92,000 words" (fun () ->
        let _, a = analog ~level:Optim.Pipeline.O0_IM Workloads.Spec2000.gcc in
        let w = 1e6 *. minor_mwords (fun () -> ignore (Instr.Guided.context a.vfg)) in
        check_bool (Printf.sprintf "%.0f words < 92000" w) true (w < 92000.0));
    (* The structure certificate once kept the graph's edges and the
       expected ones as (src, dst, kind) triples in two hash tables and
       allocated a closure per instruction and per probe: 17,066 words
       here, almost three times both VFG builds. The edges now sit in one
       open-addressing table of ints (6,419). *)
    tc "check_structure of a small generated program allocates under 8,500 words"
      (fun () ->
        let src = Audit.Gen.source ~size:3 ~seed:(Audit.Gen.campaign_seed ~seed:1 0) () in
        let prog = front ~level:Optim.Pipeline.O0_IM src in
        let a = Usher.Pipeline.analyze prog in
        let w = 1e6 *. minor_mwords (fun () -> ignore (Verify.Vfg.check_structure a.vfg)) in
        check_bool (Printf.sprintf "%.0f words < 8500" w) true (w < 8500.0));
    (* Appending to a block once copied the whole block, and lowering puts
       every local's Alloc in the entry block: 137 Mwords here. *)
    tc "lowering 176.gcc allocates under 20 Mwords" (fun () ->
        let ast =
          Tinyc.Parser.parse_program
            (Workloads.Spec2000.source ~scale:5 Workloads.Spec2000.gcc)
        in
        let mw = minor_mwords (fun () -> ignore (Tinyc.Lower.lower_program ast)) in
        check_bool (Printf.sprintf "%.1f Mwords < 20" mw) true (mw < 20.0));
    (* The lexer once allocated an option per character peeked, and the
       parser reversed its token list before copying it into an array:
       4.66 Mwords here. It now reads the source in place (1.81). *)
    tc "lexing and parsing 176.gcc allocates under 2.5 Mwords" (fun () ->
        let src = Workloads.Spec2000.source ~scale:5 Workloads.Spec2000.gcc in
        let mw = minor_mwords (fun () -> ignore (Tinyc.Parser.parse_program src)) in
        check_bool (Printf.sprintf "%.2f Mwords < 2.5" mw) true (mw < 2.5));
    (* mem2reg once built hash tables and alloc-by-block matrices per
       function and rebuilt every instruction it walked past: 11.35
       Mwords here. Its variable-indexed tables now outlive each
       function and an instruction is rebuilt only when an operand
       changes (2.67). *)
    tc "mem2reg on 176.gcc allocates under 4 Mwords" (fun () ->
        let p = before_mem2reg (Workloads.Spec2000.source ~scale:5 Workloads.Spec2000.gcc) in
        let mw = minor_mwords (fun () -> ignore (Optim.Mem2reg.run p)) in
        check_bool (Printf.sprintf "%.2f Mwords < 4" mw) true (mw < 4.0));
  ]

(* [usherc run] plans one variant and compresses it with the function
   [Experiment.prepare] uses, so at O2 its plan is the bench lane's, and
   at O0+IM compression leaves the plan alone. *)
let run_plan_tests =
  [
    tc "run's plans are the bench lanes' at O2 and O0+IM" (fun () ->
        let src = Workloads.Spec2000.source ~scale:5 (Workloads.Spec2000.find "197.parser") in
        List.iter
          (fun level ->
            let p = Usher.Experiment.prepare ~level src in
            let prog, _ = Usher.Pipeline.front_guarded ~level src in
            let a = Usher.Pipeline.analyze prog in
            List.iter
              (fun (l : Usher.Experiment.lane) ->
                let plan, _ = Usher.Pipeline.plan_for a l.lvariant in
                let removed = Usher.Experiment.compress level plan in
                let what =
                  Printf.sprintf "%s %s" (Optim.Pipeline.level_to_string level)
                    (Usher.Config.variant_name l.lvariant)
                in
                check_int (what ^ ": items removed") l.lcompressed removed;
                check_bool (what ^ ": plan stats") true
                  (Instr.Item.stats_of plan = Instr.Item.stats_of l.lplan))
              p.lanes;
            check_bool "O2 compresses something" true
              (level = Optim.Pipeline.O0_IM
              || List.exists (fun (l : Usher.Experiment.lane) -> l.lcompressed > 0) p.lanes))
          [ Optim.Pipeline.O2; Optim.Pipeline.O0_IM ]);
    (* [usherc analyze] reports [Experiment.plan_for]'s plan: at O2 the
       compressed one bench runs (props 1070 for Usher on 197.parser),
       not the 1204 planned before compression. *)
    tc "analyze's props and checks are the Usher lane's at O2" (fun () ->
        let level = Optim.Pipeline.O2 in
        let src = Workloads.Spec2000.source ~scale:5 (Workloads.Spec2000.find "197.parser") in
        let lane =
          List.find
            (fun (l : Usher.Experiment.lane) -> l.lvariant = Usher.Config.Usher_full)
            (Usher.Experiment.prepare ~level src).lanes
        in
        let prog, _ = Usher.Pipeline.front_guarded ~level src in
        let plan, _ =
          Usher.Experiment.plan_for level (Usher.Pipeline.analyze prog) Usher.Config.Usher_full
        in
        let s = Instr.Item.stats_of plan and s' = Instr.Item.stats_of lane.lplan in
        check_int "props" s'.propagations s.propagations;
        check_int "checks" s'.checks s.checks;
        check_int "bench's props" 1070 s.propagations);
  ]

let suites =
  [ ("mfc", mfc_tests); ("vfg.index", index_tests); ("opt2", opt2_tests); ("opt2.reference", opt2_reference_tests); ("costmodel", costmodel_tests);
    ("golden", golden_tests); ("alloc-guard", alloc_tests);
    ("experiment.compress", run_plan_tests) ]
