(* Shared helpers for the test suites. *)

let compile = Tinyc.Lower.compile
let front ?level src = Usher.Pipeline.front ?level src

(** [src] lowered, inlined and cleaned up: the program mem2reg sees. *)
let before_mem2reg src =
  let p = compile src in
  ignore (Optim.Inline.run p);
  Optim.Simplify_cfg.run p;
  p

let analyze ?knobs ?level src =
  let prog = front ?level src in
  (prog, Usher.Pipeline.analyze ?knobs prog)

(** Run [src] under one variant; returns the interpreter outcome. *)
let run_variant ?knobs ?level src variant =
  let prog, a = analyze ?knobs ?level src in
  let plan, _ = Usher.Pipeline.plan_for a variant in
  Runtime.Interp.run_plan prog plan

let outputs ?level src = (Runtime.Interp.run_native (front ?level src)).outputs

let detections ?knobs ?level src variant =
  let o = run_variant ?knobs ?level src variant in
  Hashtbl.fold (fun l () acc -> l :: acc) o.detections [] |> List.sort compare

let gt_uses ?level src =
  let o = Runtime.Interp.run_native (front ?level src) in
  Hashtbl.fold (fun l () acc -> l :: acc) o.gt_uses [] |> List.sort compare

let static_stats ?knobs ?level src variant =
  let _, a = analyze ?knobs ?level src in
  let plan, _ = Usher.Pipeline.plan_for a variant in
  Instr.Item.stats_of plan

(** All variable ids whose base name is [name]. *)
let vars_named (p : Ir.Prog.t) name =
  let acc = ref [] in
  for v = 0 to Ir.Prog.nvars p - 1 do
    if (Ir.Prog.varinfo p v).Ir.Types.vname = name then acc := v :: !acc
  done;
  List.rev !acc

(** Count instructions satisfying [pred]. *)
let count_instrs pred (p : Ir.Prog.t) =
  let n = ref 0 in
  Ir.Prog.iter_instrs (fun _ _ i -> if pred i.Ir.Types.kind then incr n) p;
  !n

let find_instr pred (p : Ir.Prog.t) =
  let r = ref None in
  Ir.Prog.iter_instrs
    (fun f _ i -> if !r = None && pred i.Ir.Types.kind then r := Some (f, i))
    p;
  !r

(** Points-to sets (as sorted location names) of each load's pointer operand,
    in program order, restricted to function [fname] when given. *)
let loads_pts ?fname (p : Ir.Prog.t) (pa : Analysis.Andersen.t) =
  let acc = ref [] in
  Ir.Prog.iter_instrs
    (fun f _ i ->
      match i.Ir.Types.kind with
      | Ir.Types.Load (_, y) when fname = None || fname = Some f.Ir.Types.fname ->
        acc :=
          (Analysis.Andersen.pts_var_list pa y
          |> List.map (Analysis.Objects.loc_name pa.objects)
          |> List.sort compare)
          :: !acc
      | _ -> ())
    p;
  List.rev !acc

(** Same for stores. *)
let stores_pts ?fname (p : Ir.Prog.t) (pa : Analysis.Andersen.t) =
  let acc = ref [] in
  Ir.Prog.iter_instrs
    (fun f _ i ->
      match i.Ir.Types.kind with
      | Ir.Types.Store (x, _) when fname = None || fname = Some f.Ir.Types.fname ->
        acc :=
          (Analysis.Andersen.pts_var_list pa x
          |> List.map (Analysis.Objects.loc_name pa.objects)
          |> List.sort compare)
          :: !acc
      | _ -> ())
    p;
  List.rev !acc

let ints = Alcotest.(list int)
let check_ints = Alcotest.(check (list int))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let tc name f = Alcotest.test_case name `Quick f

(** One SPEC2000 analog, analyzed at [level] and input [scale]. *)
let analog ?(scale = 5) ~level (p : Workloads.Profile.t) =
  let prog = front ~level (Workloads.Spec2000.source ~scale p) in
  (prog, Usher.Pipeline.analyze prog)

(** Every variant's plan, in [Usher.Config.all_variants] order. Above
    O0+IM the shadow constants are folded first, as [Usher.Experiment.run]
    does before [Instr.Compress.run]. *)
let folded_plans ~level (a : Usher.Pipeline.analysis) =
  List.map
    (fun v ->
      let plan, _ = Usher.Pipeline.plan_for a v in
      if level <> Optim.Pipeline.O0_IM then
        ignore (Instr.Compress.fold_constants plan);
      plan)
    Usher.Config.all_variants

let copy_plan (plan : Instr.Item.plan) =
  { plan with items = Array.copy plan.items;
              entry_items = Hashtbl.copy plan.entry_items }

(** A plan's entry actions, sorted by function. *)
let entry_bindings (plan : Instr.Item.plan) =
  Hashtbl.fold (fun fn acts acc -> (fn, acts) :: acc) plan.entry_items []
  |> List.sort compare

(** Words [f ()] allocates: (minor heap, directly in the major heap). A
    minor collection on both sides settles promotion, so the direct major
    words are the major words less the promoted ones. *)
let heap_words f =
  Gc.minor ();
  let mi0, pr0, ma0 = Gc.counters () in
  f ();
  Gc.minor ();
  let mi1, pr1, ma1 = Gc.counters () in
  (mi1 -. mi0, ma1 -. ma0 -. (pr1 -. pr0))

(** Minor-heap words allocated by [f ()], in millions. *)
let minor_mwords f =
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. 1e6

(** MD5 of a whole program's IR: every function's name, parameters and
    blocks (labels, kinds, terminators), the globals, the variable table
    and the label counter. Temporaries are named from a process-global
    counter, so the number in their ["tN"] names, and in the ["tN$f"]
    names of their inlined copies, is masked: the digest depends on the
    program alone, not on what the process compiled before. *)
let ir_digest (p : Ir.Prog.t) =
  let open Ir.Types in
  let funcs =
    List.init (Ir.Prog.nfuncs p) (fun fi ->
        let f = Ir.Prog.func_at p fi in
        ( f.fname,
          f.params,
          Array.map
            (fun b -> (b.bid, List.map (fun i -> (i.lbl, i.kind)) b.instrs, b.term))
            f.blocks ))
  in
  let mask s =
    let n = String.length s in
    let i = ref 1 in
    while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do incr i done;
    if n >= 2 && s.[0] = 't' && !i > 1 && (!i = n || s.[!i] = '$') then
      "t" ^ String.sub s !i (n - !i)
    else s
  in
  let vars =
    Array.init (Ir.Prog.nvars p) (fun v ->
        let vi = Ir.Prog.varinfo p v in
        { vi with vname = mask vi.vname })
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (funcs, p.globals, vars, p.next_label) [ Marshal.No_sharing ]))

(** A node's successors and predecessors as lists, in iteration order. *)
let vfg_succs g v =
  let l = ref [] in
  Vfg.Graph.iter_succs g v (fun d k -> l := (d, k) :: !l);
  List.rev !l

let vfg_preds g v =
  let l = ref [] in
  Vfg.Graph.iter_preds g v (fun s k -> l := (s, k) :: !l);
  List.rev !l

(** A kind's code, as the condensation packs it: 0 intra, 2l+1 call at l,
    2l+2 return to l. *)
let kind_code k =
  if Vfg.Graph.is_intra k then 0
  else (2 * Vfg.Graph.label k) + if Vfg.Graph.is_call k then 1 else 2

(** MD5 of one built value-flow graph and its side results: the nodes in
    id order with their def sites, each node's successors and
    predecessors in iteration order with their edge kinds, the criticals,
    the store kinds by label, the semi-strong cut count and every
    function's return operands. Written as text, so the digest does not
    depend on how [Vfg.Graph] stores any of it. *)
let vfg_digest (b : Vfg.Build.t) =
  let module G = Vfg.Graph in
  let open Ir.Types in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.bprintf buf fmt in
  let operand = function
    | Cst n -> add "c%d" n
    | Undef -> add "u"
    | Var v -> add "v%d" v
  in
  let kind k =
    if G.is_intra k then add "i"
    else add "%s%d" (if G.is_call k then "c" else "r") (G.label k)
  in
  let g = b.graph in
  for id = 0 to G.nnodes g - 1 do
    (match G.node_of g id with
    | G.Root_t -> add "T"
    | G.Root_f -> add "F"
    | G.Top v -> add "t%d" v
    | G.Mem (f, l, ver) -> add "m%s:%d:%d" f l ver);
    (match G.def_of g id with
    | G.Droot -> add " R"
    | G.Dinstr (f, l) -> add " I%s:%d" f l
    | G.Dparam f -> add " P%s" f
    | G.Dchi (f, l) -> add " C%s:%d" f l
    | G.Dmemphi (f, bid) -> add " M%s:%d" f bid
    | G.Dentry f -> add " E%s" f);
    add " s";
    G.iter_succs g id (fun d k -> add " %d" d; kind k);
    add " p";
    G.iter_preds g id (fun s k -> add " %d" s; kind k);
    add "\n"
  done;
  List.iter
    (fun (c : Vfg.Build.critical) ->
      add "crit %d " c.clbl;
      operand c.cop;
      add " %s\n" c.cfunc)
    b.criticals;
  Hashtbl.fold (fun l k acc -> (l, k) :: acc) b.store_kind []
  |> List.sort compare
  |> List.iter (fun (l, k) ->
         add "store %d %s\n" l
           (match k with
           | Vfg.Build.Strong -> "strong"
           | Semi_strong -> "semi"
           | Weak -> "weak"));
  add "cuts %d\n" b.semi_strong_cuts;
  Hashtbl.fold (fun f rets acc -> (f, rets) :: acc) b.ret_operands []
  |> List.sort (fun (f, _) (f', _) -> compare f f')
  |> List.iter (fun (f, rets) ->
         add "ret %s" f;
         List.iter
           (fun (l, o) ->
             add " %d:" l;
             match o with Some o -> operand o | None -> add "-")
           rets;
         add "\n");
  Digest.to_hex (Digest.string (Buffer.contents buf))
