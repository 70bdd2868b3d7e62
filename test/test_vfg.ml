(* VFG construction, update flavours and definedness resolution. *)

open Helpers

let build ?(knobs = Usher.Config.default_knobs) src =
  let prog, a = analyze ~knobs src in
  (prog, a)

(* Γ of the operand of each print (Output) statement, in program order —
   robust against mem2reg renaming test variables away. *)
let printed_undef ?(graph = `At) (prog : Ir.Prog.t) (a : Usher.Pipeline.analysis) =
  let g, gamma =
    match graph with
    | `At -> (a.Usher.Pipeline.vfg.graph, a.gamma)
    | `Tl -> (a.vfg_tl.graph, a.gamma_tl)
  in
  let acc = ref [] in
  Ir.Prog.iter_instrs
    (fun _ _ i ->
      match i.Ir.Types.kind with
      | Ir.Types.Output (Ir.Types.Var v) ->
        let u =
          match Vfg.Graph.find g (Vfg.Graph.Top v) with
          | Some id -> Vfg.Resolve.is_undef gamma id
          | None -> false
        in
        acc := u :: !acc
      | Ir.Types.Output Ir.Types.Undef -> acc := true :: !acc
      | Ir.Types.Output (Ir.Types.Cst _) -> acc := false :: !acc
      | _ -> ())
    prog;
  List.rev !acc

(* Γ of the first printed value. *)
let first_printed_undef ?graph prog a =
  match printed_undef ?graph prog a with
  | u :: _ -> u
  | [] -> Alcotest.fail "no print in test program"

let store_kinds (prog : Ir.Prog.t) (a : Usher.Pipeline.analysis) =
  let acc = ref [] in
  Ir.Prog.iter_instrs
    (fun _ _ i ->
      match i.Ir.Types.kind with
      | Ir.Types.Store _ ->
        acc := Hashtbl.find_opt a.vfg.store_kind i.lbl :: !acc
      | _ -> ())
    prog;
  List.rev !acc

let resolution_tests =
  [
    tc "constants are defined" (fun () ->
        let prog, a = build "int main() { int x = 1; int y = x + 2; print(y); return y; }" in
        check_bool "y top" false (first_printed_undef prog a));
    tc "uninitialized locals are undefined" (fun () ->
        let prog, a = build "int main() { int u; int y = u + 1; print(y); return y; }" in
        check_bool "y bot" true (first_printed_undef prog a));
    tc "conditional initialization stays undefined" (fun () ->
        let prog, a = build
            "int main() { int c = input(); int u; if (c) { u = 1; }\n\
             int y = u + 1; print(y); return y; }" in
        check_bool "y bot" true (first_printed_undef prog a));
    tc "initialization on both arms is defined" (fun () ->
        let prog, a = build
            "int main() { int c = input(); int u;\n\
             if (c) { u = 1; } else { u = 2; }\n\
             int y = u + 1; print(y); return y; }" in
        check_bool "y top" false (first_printed_undef prog a));
    tc "definedness flows through memory" (fun () ->
        let prog, a = build
            "int main() { int x; int *p = &x; *p = 5; int y = *p + 1; print(y); return y; }" in
        check_bool "y top" false (first_printed_undef prog a));
    tc "undefined memory flows to loads" (fun () ->
        let prog, a = build
            "int main() { int c = input(); int x; int *p = &x;\n\
             if (c) { *p = 5; }\n\
             int y = *p + 1; print(y); return y; }" in
        check_bool "y bot" true (first_printed_undef prog a));
    tc "calloc memory is defined, malloc memory is not" (fun () ->
        let prog, a = build
            "int main() { int *c = (int*)calloc(2); int *m = (int*)malloc(2);\n\
             int yc = *c; int ym = *m; print(yc); print(ym); return ym; }" in
        (* note: 2-cell allocations are arrays, so stores cannot rescue them *)
        match printed_undef prog a with
        | [ yc; ym ] ->
          check_bool "calloc top" false yc;
          check_bool "malloc bot" true ym
        | _ -> Alcotest.fail "expected two prints");
    tc "globals are default-initialized" (fun () ->
        let prog, a = build "int g; int main() { int y = g + 1; print(y); return y; }" in
        check_bool "y top" false (first_printed_undef prog a));
    tc "the TL graph distrusts all memory" (fun () ->
        let prog, a = build
            "int main() { int x; int *p = &x; *p = 5; int y = *p + 1; print(y); return y; }" in
        check_bool "y bot under TL" true (first_printed_undef ~graph:`Tl prog a);
        check_bool "y top under TL+AT" false (first_printed_undef prog a));
  ]

let update_tests =
  [
    tc "store to a scalar local is a strong update" (fun () ->
        let prog, a = build "int main() { int x; int *p = &x; *p = 1; return *p; }" in
        check_bool "strong" true (store_kinds prog a = [ Some Vfg.Build.Strong ]));
    tc "strong update kills undefinedness" (fun () ->
        let prog, a = build
            "int main() { int x; int *p = &x; *p = 1; int y = *p; print(y); return y; }" in
        check_bool "y top" false (first_printed_undef prog a));
    tc "aliased store is weak" (fun () ->
        let prog, a = build
            "int main() { int x; int y; int *p; x = 1; y = 2;\n\
             if (x) { p = &x; } else { p = &y; }\n\
             *p = 3; return *p; }" in
        let kinds = store_kinds prog a in
        check_bool "last store weak" true
          (List.nth kinds (List.length kinds - 1) = Some Vfg.Build.Weak));
    tc "stack slot of a recursive function is not concrete" (fun () ->
        let prog, a = build
            "int r(int n) { int t; int *p = &t; *p = n;\n\
             if (n < 1) { return *p; } return r(n - 1) + *p; }\n\
             int main() { return r(2); }" in
        check_bool "no strong update" true
          (List.for_all (fun k -> k <> Some Vfg.Build.Strong) (store_kinds prog a)));
    tc "Fig. 6: allocation in a loop enables a semi-strong update" (fun () ->
        let prog, a = build
            "int main() { int s = 0; int i;\n\
             for (i = 0; i < 9; i = i + 1) { int *q = (int*)malloc(1);\n\
             *q = i; s = s + *q; }\n\
             print(s);\n\
             return s; }" in
        check_bool "semi-strong applied" true (a.vfg.semi_strong_cuts >= 1);
        check_bool "s provably defined" false (first_printed_undef prog a));
    tc "without semi-strong the same program is imprecise" (fun () ->
        let prog, a =
          build ~knobs:{ Usher.Config.default_knobs with semi_strong = false }
            "int main() { int s = 0; int i;\n\
             for (i = 0; i < 9; i = i + 1) { int *q = (int*)malloc(1);\n\
             *q = i; s = s + *q; }\n\
             print(s);\n\
             return s; }"
        in
        check_bool "s maybe-undef" true (first_printed_undef prog a));
    tc "semi-strong needs the pointer to derive from the alloc" (fun () ->
        (* the pointer comes back out of memory: no derivation, no bypass *)
        let prog, a = build
            "int main() { int **h = (int**)malloc(1); int s = 0; int i;\n\
             for (i = 0; i < 5; i = i + 1) { int *q = (int*)malloc(1);\n\
             *h = q; int *r = *h; *r = i; s = s + *r; }\n\
             if (s > 1) { print(s); }\n\
             return s; }" in
        (* the store whose value operand is the loop variable i *)
        let kind = ref None in
        Ir.Prog.iter_instrs
          (fun _ _ ins ->
            match ins.Ir.Types.kind with
            | Ir.Types.Store (_, Ir.Types.Var v)
              when (Ir.Prog.varinfo prog v).vname = "i" ->
              kind := Hashtbl.find_opt a.Usher.Pipeline.vfg.store_kind ins.lbl
            | _ -> ())
          prog;
        check_bool "the r-store is weak" true (!kind = Some Vfg.Build.Weak));
  ]

let context_tests =
  [
    tc "matched call/return paths are excluded (Fig. 5)" (fun () ->
        (* id() is called with a defined value at the hot site and an
           undefined value at a cold site; context-sensitively the hot
           result stays defined. *)
        let src =
          "int id(int x) { return x; }\n\
           int main() { int d = 5; int hd = id(d);\n\
           int c = input(); if (c > 99) { int u; int cu = id(u); print(cu); }\n\
           int y = hd + 1; print(y); return y; }"
        in
        let prog, a = build src in
        let last l = List.nth l (List.length l - 1) in
        check_bool "hot result defined (context-sensitive)" false
          (last (printed_undef prog a));
        let prog', a' =
          build ~knobs:{ Usher.Config.default_knobs with context_sensitive = false } src
        in
        check_bool "polluted when insensitive" true (last (printed_undef prog' a')));
    tc "undefined argument still reaches its own call site" (fun () ->
        let prog, a = build
            "int id(int x) { return x; }\n\
             int main() { int u; int y = id(u); print(y); return y; }" in
        check_bool "y bot" true (first_printed_undef prog a));
    tc "recursion is handled soundly" (fun () ->
        let prog, a = build
            "int f(int n, int u) { if (n < 1) { return u; } return f(n - 1, u); }\n\
             int main() { int w; int y = f(3, w); print(y); return y; }" in
        check_bool "y bot" true (first_printed_undef prog a));
  ]

let graph_tests =
  [
    tc "roots exist and are never undefined/defined respectively" (fun () ->
        let _, a = build "int main() { return 0; }" in
        let g = a.vfg.graph in
        let t = Vfg.Graph.intern g Vfg.Graph.Root_t in
        let f = Vfg.Graph.intern g Vfg.Graph.Root_f in
        check_bool "T top" false (Vfg.Resolve.is_undef a.gamma t);
        check_bool "F bot" true (Vfg.Resolve.is_undef a.gamma f));
    tc "criticals cover loads, stores and branches" (fun () ->
        let _, a = build
            "int main() { int x; int *p = &x; *p = 1;\n\
             if (*p > 0) { print(*p); } return 0; }" in
        (* at least: store ptr, 2 load ptrs, 1 branch cond, loop none *)
        check_bool "enough criticals" true (List.length a.vfg.criticals >= 4));
    tc "copy of the graph is independent" (fun () ->
        let _, a = build "int main() { int x = 1; return x; }" in
        let g = a.vfg.graph in
        let c = Vfg.Graph.copy g in
        let n = Vfg.Graph.nnodes c in
        ignore (Vfg.Graph.intern c (Vfg.Graph.Top 0));
        check_int "original unchanged" (Vfg.Graph.nnodes g) n);
    tc "an edge-only copy reads the node tables and refuses new nodes" (fun () ->
        let _, a = build "int main() { int x = 1; return x; }" in
        let g = a.vfg.graph in
        let c = Vfg.Graph.copy_edges g in
        check_int "T interned" (Vfg.Graph.intern g Vfg.Graph.Root_t)
          (Vfg.Graph.intern c Vfg.Graph.Root_t);
        let fresh = Vfg.Graph.Mem ("main", 0, 1_000_000) in
        check_bool "new node refused" true
          (match Vfg.Graph.intern c fresh with
          | _ -> false
          | exception Invalid_argument _ -> true);
        check_bool "original has no such node" true (Vfg.Graph.find g fresh = None));
    (* A call-site label near 2^55 made the old condensation's sort key,
       ((cv * ncomps) + cu) * kspan + kind, overflow 63 bits: resolution
       raised "index out of bounds", which the pipeline turns into an
       all-⊥ Γ. Eleven nodes chain to F, one link an [Ecall] at that
       label, and one [Eret] edge at the same label leaves the callee. *)
    tc "a huge call-site label condenses without overflow" (fun () ->
        let g = Vfg.Graph.create () in
        ignore (Vfg.Graph.intern g Vfg.Graph.Root_t);
        let f = Vfg.Graph.intern g Vfg.Graph.Root_f in
        let v = Array.init 11 (fun i -> Vfg.Graph.intern g (Vfg.Graph.Top i)) in
        let l = 1 lsl 55 in
        for i = 0 to 9 do
          let k = if i = 5 then Vfg.Graph.call l else Vfg.Graph.intra in
          Vfg.Graph.add_edge g ~src:v.(i) ~dst:v.(i + 1) k
        done;
        Vfg.Graph.add_edge g ~src:v.(10) ~dst:f Vfg.Graph.intra;
        Vfg.Graph.add_edge g ~src:v.(2) ~dst:v.(3) (Vfg.Graph.ret l);
        check_int "13 nodes" 13 (Vfg.Graph.nnodes g);
        let condensed = Vfg.Resolve.resolve g in
        let reference = Vfg.Resolve.resolve ~condense:false g in
        check_bool "condensed Γ = node-level Γ" true
          (Bytes.equal condensed.undef reference.undef);
        check_bool "the chain's head is ⊥" true (Vfg.Resolve.is_undef condensed v.(0)));
  ]

(* [Graph]'s edge sets against a reference model: a hash set of
   (src, dst, kind) triples beside newest-first successor and predecessor
   lists. Random sequences of [add_edge], [remove_edge], [copy] and
   [copy_edges] hit
   duplicates often (few nodes, few kinds); [Fan] gives node 0 up to
   2,000 successors, far beyond the out-degree the analogs produce, and
   [Unfan] takes them away again, so node 0's out-degree crosses the
   graph's switch from list scans to a hash set in both directions. *)
module G = Vfg.Graph

type op =
  | Add of int * int * G.kind
  | Remove of int * int * G.kind
  | Copy
  | Copy_edges
  | Fan of int * G.kind
  | Unfan of int * G.kind

let fan_width = 2000

type model = {
  set : (int * int * G.kind, unit) Hashtbl.t;
  msuccs : (int * G.kind) list array;
  mpreds : (int * G.kind) list array;
}

let model_create () =
  {
    set = Hashtbl.create 64;
    msuccs = Array.make fan_width [];
    mpreds = Array.make fan_width [];
  }

let model_copy m =
  { set = Hashtbl.copy m.set; msuccs = Array.copy m.msuccs; mpreds = Array.copy m.mpreds }

let model_add m s d k =
  if not (Hashtbl.mem m.set (s, d, k)) then begin
    Hashtbl.replace m.set (s, d, k) ();
    m.msuccs.(s) <- (d, k) :: m.msuccs.(s);
    m.mpreds.(d) <- (s, k) :: m.mpreds.(d)
  end

let model_remove m s d k =
  if Hashtbl.mem m.set (s, d, k) then begin
    Hashtbl.remove m.set (s, d, k);
    m.msuccs.(s) <- List.filter (( <> ) (d, k)) m.msuccs.(s);
    m.mpreds.(d) <- List.filter (( <> ) (s, k)) m.mpreds.(d)
  end

let fresh_graph () =
  let g = G.create () in
  for v = 0 to fan_width - 1 do
    check_int "dense ids" v (G.intern g (G.Top v))
  done;
  g

(* Successor and predecessor lists, order included, and the edge count. *)
let agrees g m =
  G.nedges g = Hashtbl.length m.set
  && List.for_all
       (fun v -> vfg_succs g v = m.msuccs.(v) && vfg_preds g v = m.mpreds.(v))
       (List.init fan_width Fun.id)

let gen_kind =
  QCheck.Gen.(
    oneof
      [
        return G.intra;
        map G.call (0 -- 2);
        map G.ret (0 -- 2);
      ])

let gen_width = QCheck.Gen.oneofl [ 4; 12; fan_width ]

let gen_op =
  QCheck.Gen.(
    let dst = oneof [ 0 -- 7; 0 -- (fan_width - 1) ] in
    frequency
      [
        (8, map3 (fun s d k -> Add (s, d, k)) (0 -- 7) (0 -- 7) gen_kind);
        (5, map3 (fun s d k -> Remove (s, d, k)) (0 -- 7) dst gen_kind);
        (1, oneofl [ Copy; Copy_edges ]);
        (1, map2 (fun w k -> Fan (w, k)) gen_width gen_kind);
        (1, map2 (fun w k -> Unfan (w, k)) gen_width gen_kind);
      ])

let show_op = function
  | Add (s, d, _) -> Printf.sprintf "add %d->%d" s d
  | Remove (s, d, _) -> Printf.sprintf "remove %d->%d" s d
  | Copy -> "copy"
  | Copy_edges -> "copy_edges"
  | Fan (w, _) -> Printf.sprintf "fan %d" w
  | Unfan (w, _) -> Printf.sprintf "unfan %d" w

let arbitrary_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (1 -- 40) gen_op)

(* Applies [ops], checking idempotence at every step; a [Copy] continues
   on the copy and sets the original aside, with a snapshot of its model,
   to check at the end that the copy's later edits never reach it. *)
let edge_set_agrees ops =
  let g = ref (fresh_graph ()) and m = ref (model_create ()) in
  let originals = ref [] in
  let step = function
    | Add (s, d, k) ->
      G.add_edge !g ~src:s ~dst:d k;
      model_add !m s d k;
      let n = G.nedges !g in
      G.add_edge !g ~src:s ~dst:d k;
      G.nedges !g = n
    | Remove (s, d, k) ->
      G.remove_edge !g ~src:s ~dst:d k;
      model_remove !m s d k;
      let n = G.nedges !g in
      G.remove_edge !g ~src:s ~dst:d k;
      G.nedges !g = n
    | Copy ->
      originals := (!g, model_copy !m) :: !originals;
      g := G.copy !g;
      true
    | Copy_edges ->
      originals := (!g, model_copy !m) :: !originals;
      g := G.copy_edges !g;
      true
    | Fan (w, k) ->
      for d = 0 to w - 1 do
        G.add_edge !g ~src:0 ~dst:d k;
        model_add !m 0 d k
      done;
      true
    | Unfan (w, k) ->
      for d = 0 to w - 1 do
        G.remove_edge !g ~src:0 ~dst:d k;
        model_remove !m 0 d k
      done;
      true
  in
  (* An original set aside must still decide membership on its own:
     fanning node 0 out with every kind adds exactly what its model lacks. *)
  let probe =
    List.map
      (fun k -> Fan (fan_width, k))
      G.[ intra; call 0; call 1; call 2; ret 0; ret 1; ret 2 ]
  in
  List.for_all (fun op -> step op && G.nedges !g = Hashtbl.length !m.set) ops
  && agrees !g !m
  && List.for_all
       (fun (g0, m0) ->
         agrees g0 m0
         && begin
              g := g0;
              m := m0;
              List.for_all step probe && agrees g0 m0
            end)
       !originals

let edge_set_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:60
         ~name:"add/remove/copy agree with a reference edge set" arbitrary_ops
         edge_set_agrees);
  ]

let suites =
  [ ("vfg.resolution", resolution_tests); ("vfg.updates", update_tests);
    ("vfg.context", context_tests); ("vfg.graph", graph_tests);
    ("vfg.edge-set", edge_set_tests) ]
