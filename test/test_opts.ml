(* Must Flow-from Closures (Definition 2), Opt I internals, Opt II internals,
   and the cost model. *)

open Helpers

(* Build a def table for main of a compiled program. *)
let defs_of_main src =
  let prog = front src in
  let f = Ir.Prog.get_func prog "main" in
  let tbl = Hashtbl.create 32 in
  Ir.Func.iter_instrs
    (fun _ i ->
      match Ir.Instr.def_of i.Ir.Types.kind with
      | Some d -> Hashtbl.replace tbl d i.Ir.Types.kind
      | None -> ())
    f;
  (prog, tbl)

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
        let prog, defs = defs_of_main
            "int main() { int buf[4]; int i;\n\
             for (i = 0; i < 4; i = i + 1) { buf[i] = i; }\n\
             int a = buf[0]; int b = buf[1]; int c = buf[2]; int d = buf[3];\n\
             int x = a + b; int y = c + d; int z = x + y;\n\
             if (z > 5) { print(1); } return 0; }"
        in
        let v = first_branch_var prog in
        let m = Vfg.Mfc.compute defs v in
        check_bool "interior >= 4" true (m.interior >= 4);
        check_int "four sources" 4 (List.length (Vfg.Mfc.var_sources m));
        check_bool "simplifiable" true (Vfg.Mfc.simplifiable m));
    tc "input() results are always-defined sources" (fun () ->
        let prog, defs = defs_of_main
            "int main() { int a = input(); int z = a + 1;\n\
             if (z > 5) { print(1); } return 0; }"
        in
        let v = first_branch_var prog in
        let m = Vfg.Mfc.compute defs v in
        check_int "no var sources" 0 (List.length (Vfg.Mfc.var_sources m));
        check_bool "T source" true (List.mem Vfg.Mfc.Sroot_t m.Vfg.Mfc.sources));
    tc "constants become T sources" (fun () ->
        let prog, defs = defs_of_main
            "int main() { int z = 1 + 2; if (z > 0) { print(1); } return 0; }"
        in
        let v = first_branch_var prog in
        let m = Vfg.Mfc.compute defs v in
        check_int "no var sources" 0 (List.length (Vfg.Mfc.var_sources m));
        check_bool "has T source" true
          (List.mem Vfg.Mfc.Sroot_t m.Vfg.Mfc.sources));
    tc "undef operands become F sources" (fun () ->
        let prog, defs = defs_of_main
            "int main() { int u; int z = u + 1; if (z > 0) { print(1); } return 0; }"
        in
        let v = first_branch_var prog in
        let m = Vfg.Mfc.compute defs v in
        check_bool "F source" true (Vfg.Mfc.has_undef_source m));
    tc "loads and calls are sources, not interior" (fun () ->
        let prog, defs = defs_of_main
            "int main() { int a[2]; a[0] = input(); int z = a[0] * 2;\n\
             if (z > 0) { print(1); } return 0; }"
        in
        let v = first_branch_var prog in
        let m = Vfg.Mfc.compute defs v in
        (* the load result is a variable source *)
        check_bool "one var source" true (List.length (Vfg.Mfc.var_sources m) = 1));
    tc "closures traverse address computations" (fun () ->
        let prog, defs = defs_of_main
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
          let m = Vfg.Mfc.compute defs p in
          check_bool "interior through gep" true (m.interior >= 2)
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

(* The dense Opt II against [Opt2_reference] (per-critical hash tables,
   [Mfc.compute], a deep copy) on generated programs at O0+IM and O2: the
   same R, the same Γ and the same rewired edges. *)
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
      && Opt2_reference.edge_multiset g = Opt2_reference.edge_multiset g')
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

let golden_tests =
  [
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
  ]

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
  [ ("mfc", mfc_tests); ("opt2", opt2_tests); ("opt2.reference", opt2_reference_tests); ("costmodel", costmodel_tests);
    ("golden", golden_tests); ("alloc-guard", alloc_tests);
    ("experiment.compress", run_plan_tests) ]
