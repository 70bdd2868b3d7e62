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
    List.map
      (fun (_, f) ->
        ( f.fname,
          f.params,
          Array.map
            (fun b -> (b.bid, List.map (fun i -> (i.lbl, i.kind)) b.instrs, b.term))
            f.blocks ))
      p.funcs
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
