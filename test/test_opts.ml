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

(* Opt II's R, a digest of its Γ, and the static stats of all five plans
   (after shadow constant folding and dead-code elimination above O0+IM),
   for every analog at scale 5. The values were recorded before Opt II's
   rewiring and [Instr.Compress.run] were made linear; any change to the
   analysis output shows up here. *)
let golden_row level (p : Workloads.Profile.t) =
  let _, a = analog ~level p in
  let plans = folded_plans ~level a in
  if level <> Optim.Pipeline.O0_IM then
    List.iter (fun plan -> ignore (Instr.Compress.run plan)) plans;
  let stats plan =
    let s = Instr.Item.stats_of plan in
    Printf.sprintf "%d/%d/%d" s.propagations s.checks s.total_items
  in
  Printf.sprintf "%s %s R=%d %s %s" p.pname
    (Optim.Pipeline.level_to_string level)
    a.opt2.redirected
    (Digest.to_hex (Digest.bytes a.opt2.gamma.undef))
    (String.concat " " (List.map stats plans))

let golden =
  [
    "164.gzip O0+IM R=565 59ef4be10737bae4b04b05d18a7e77c6 4255/1020/5065 2954/421/2965 1503/279/1542 1101/279/1209 929/191/1005";
    "164.gzip O2 R=794 159ec6e821402caef2621a145fc421f1 3088/431/3093 2648/421/2733 1174/279/1334 967/279/1111 823/191/907";
    "175.vpr O0+IM R=1100 839a1be5ddd02baa9fac3dbde0f52779 8094/1897/9574 5647/776/5591 2773/523/2840 2008/523/2227 1676/353/1833";
    "175.vpr O2 R=1563 3bce3b8246096021cb2fc5cfc12169c0 6008/791/5904 5102/776/5178 2164/523/2456 1767/523/2048 1489/353/1654";
    "176.gcc O0+IM R=7665 d976a81fdec137aa82b1e7633ca5e5ff 50211/11890/59197 35974/5013/35223 18652/3567/18988 13248/3567/14817 10904/2387/12069";
    "176.gcc O2 R=10559 7a240fbf87f96e70096e8f636456a35b 38412/5050/37157 32616/5013/32691 14463/3567/16345 11647/3567/13619 9691/2387/10871";
    "177.mesa O0+IM R=3917 2a7395b97a3d82447a6815a592b3b994 25815/6052/30302 18516/2566/18085 9406/1803/9585 6638/1803/7433 5442/1201/6031";
    "177.mesa O2 R=5401 b548a02d4d52036387a8b4b05dc066ce 19748/2582/19045 16774/2566/16762 7279/1803/8214 5836/1803/6832 4838/1201/5430";
    "179.art O0+IM R=88 e8d499969b2f90eb8254f28bf1ac3361 1118/263/1335 711/110/760 284/51/295 218/51/231 190/35/195";
    "179.art O2 R=138 d940514e103ffa43d6fe8d7fe276149a 700/117/771 615/110/685 228/51/258 192/51/212 168/35/176";
    "181.mcf O0+IM R=146 b90404117d2c69952a1a77f53ab931f9 1650/431/2074 1076/157/1142 304/59/309 204/59/233 164/37/183";
    "181.mcf O2 R=226 f211c962a72400e0de04fc1ba1e24bc4 1090/163/1165 950/157/1041 238/59/267 180/59/215 146/37/165";
    "183.equake O0+IM R=128 9aab88424e0cdf17ce88092aeb453856 1360/321/1620 879/138/935 367/69/382 279/69/304 239/47/254";
    "183.equake O2 R=190 09b1eb684007f0c8641419876fba76f8 873/146/955 764/138/847 289/69/334 246/69/280 212/47/230";
    "186.crafty O0+IM R=1248 34cd786277504c7d199bb0beab7f7151 9464/2257/11295 6584/892/6512 3156/593/3234 2288/593/2527 1914/402/2084";
    "186.crafty O2 R=1799 49fedb2ce29b75625114d05ac2509823 7021/906/6880 5961/892/6042 2453/593/2783 2010/593/2322 1697/402/1879";
    "188.ammp O0+IM R=849 51451e73b212a32bf81795e5e9fecfe3 6366/1597/7780 4437/609/4448 2131/398/2182 1551/398/1711 1301/271/1416";
    "188.ammp O2 R=1206 7315ad984a642b612251b0b20ea93782 4706/625/4691 4015/609/4129 1666/398/1887 1365/398/1573 1156/271/1278";
    "197.parser O0+IM R=739 045fe6e9642b6b3fbee2fda282018911 5697/1374/6848 3923/546/3934 1961/364/2018 1428/364/1582 1204/248/1314";
    "197.parser O2 R=1054 561c9e0c0f9b0d9893b0d76b641d902b 4165/566/4176 3537/546/3643 1539/364/1748 1258/364/1454 1070/248/1186";
    "253.perlbmk O0+IM R=5565 29c226ed53a92bbe7959b2b6945922bd 36628/8632/43072 26284/3662/25747 13974/2641/14248 10017/2641/11134 8311/1784/9137";
    "253.perlbmk O2 R=7640 a425b9e35b91459d696eb812788a1649 27962/3692/27093 23797/3662/23871 10879/2641/12269 8804/2641/10232 7381/1784/8235";
    "254.gap O0+IM R=4612 f29eab6cbe9e9a04dcb1bd0794ec6e79 30407/7095/35616 21813/3020/21315 11550/2178/11778 8238/2178/9172 6826/1468/7518";
    "254.gap O2 R=6353 4f3f4cf2a0b3fd4b5d2e427e56837aee 23239/3048/22453 19754/3020/19756 8984/2178/10133 7244/2178/8432 6066/1468/6778";
    "255.vortex O0+IM R=4347 bb9670facd388c2d7dda47a0805f1974 28925/6838/34096 20754/2869/20322 10842/2048/11047 7713/2048/8600 6385/1380/7044";
    "255.vortex O2 R=5990 aa37948a9f909eeb3d811e95122846fa 22092/2896/21394 18808/2869/18851 8419/2048/9506 6777/2048/7904 5669/1380/6348";
    "256.bzip2 O0+IM R=310 5ddb22046011de139044658458895524 2690/684/3308 1819/262/1869 861/161/895 650/161/714 556/112/601";
    "256.bzip2 O2 R=451 d11f00c37f5680e0a9a9acbc7b2dada0 1887/272/1948 1624/262/1721 678/161/778 569/161/656 490/112/543";
    "300.twolf O0+IM R=1322 2a5ba19518423e1854d92b5e596468f6 9304/2209/11028 6544/918/6485 3339/631/3415 2404/631/2671 2000/425/2193";
    "300.twolf O2 R=1845 f4db9acea801bdedfdfbeba48b2c386d 6946/933/6833 5907/918/6004 2601/631/2948 2115/631/2456 1777/425/1978";
  ]

let golden_tests =
  [
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
    tc "Compress on 253.perlbmk at O2 allocates under 40 Mwords" (fun () ->
        let level = Optim.Pipeline.O2 in
        let _, a = analog ~level Workloads.Spec2000.perlbmk in
        let plans = folded_plans ~level a in
        let mw =
          minor_mwords (fun () ->
              List.iter (fun plan -> ignore (Instr.Compress.run plan)) plans)
        in
        check_bool (Printf.sprintf "%.1f Mwords < 40" mw) true (mw < 40.0));
    (* Appending to a block once copied the whole block, and lowering puts
       every local's Alloc in the entry block: 137 Mwords here. *)
    tc "lowering 176.gcc allocates under 20 Mwords" (fun () ->
        let ast =
          Tinyc.Parser.parse_program
            (Workloads.Spec2000.source ~scale:5 Workloads.Spec2000.gcc)
        in
        let mw = minor_mwords (fun () -> ignore (Tinyc.Lower.lower_program ast)) in
        check_bool (Printf.sprintf "%.1f Mwords < 20" mw) true (mw < 20.0));
  ]

let suites =
  [ ("mfc", mfc_tests); ("opt2", opt2_tests); ("costmodel", costmodel_tests);
    ("golden", golden_tests); ("alloc-guard", alloc_tests) ]
