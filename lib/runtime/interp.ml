(* The shadow-memory execution engine: a direct interpreter for the IR that
   simultaneously

   - executes the concrete program, with *ground-truth* definedness carried
     on every value (the interpreter always knows whether a value is
     garbage; that is the oracle the instrumented runs are judged against);
   - executes one or more instrumentation plans (full = the MSan baseline,
     or any of Usher's guided plans), one per *lane*: shadow registers per
     frame, shadow memory per object, the sigma_g relay array, and E(l)
     check records;
   - counts dynamic operations for the cost model.

   Lanes. A shadow is one defined/undefined bit, so shadow state is an int
   mask: bit k is lane k's shadow. Every action carries the mask of the
   lanes whose plan contains it and writes only those bits, so one
   concrete execution runs every plan at once, each lane exactly as a run
   of its plan alone would. Instrumentation never changes which concrete
   statements execute, so the same execution also yields the native
   outcome. A one-plan compile is the one-lane case of the same loop.

   Programs are compiled to a slot-resolved form first, so the hot loop
   performs no hash lookups. Shadow state defaults to "defined": shadow
   memory cells are created all-ones and shadow registers start all-ones;
   only instrumented statements ever write them. Garbage cell contents are
   a deterministic function of the object id and offset, so runs are
   reproducible.

   The compiled form is exposed (see interp.mli) so lib/vm can lower the
   exact same slot-resolved program to bytecode: both engines share one
   compilation front, which is what makes outcome-for-outcome equivalence
   a meaningful differential oracle. That front runs in two steps: a
   plan-free base once per program, then the plans attached per run. *)

open Ir.Types
module P = Ir.Prog
module Item = Instr.Item

exception Runtime_error of string

(** A resource limit (steps, objects, call depth) tripped — the *workload*
    outgrew the sandbox. Distinct from [Runtime_error], which means the
    program itself did something wrong (wild pointer, bad arity, ...), so
    callers can tell "needs a bigger budget" apart from "buggy program". *)
exception Resource_exhausted of { what : string; limit : int }

let error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

let exhausted what limit = raise (Resource_exhausted { what; limit })

(* ------------------------------------------------------------------ *)
(* Values and memory                                                   *)
(* ------------------------------------------------------------------ *)

type vkind = Vint of int | Vptr of int * int | Vfun of string

type value = { v : vkind; def : bool }

let vint ?(def = true) n = { v = Vint n; def }

(* Deterministic garbage for uninitialized cells. *)
let garbage ~objid ~off =
  let h = (objid * 2654435761) lxor (off * 40503) in
  { v = Vint ((h lxor (h lsr 16)) land 0xffff); def = false }

type mobj = {
  cells : value array;
  shadow : int array;                            (* lane mask per cell *)
  obj_name : string;
}

(* ------------------------------------------------------------------ *)
(* Compiled form                                                       *)
(* ------------------------------------------------------------------ *)

type rop = Rc of int | Rs of int | Ru           (* constant / slot / undef *)

type sop = Sc of bool | Ss of int               (* shadow of an operand *)

type crhs =
  | CRconst of bool
  | CRvar of int
  | CRconj of int array
  | CRmem of int                                 (* slot holding the pointer *)
  | CRglobal of int
  | CRphi of (int * sop) array                   (* by predecessor block *)

type cact =
  | CSet_var of int * crhs
  | CSet_mem of int * sop                        (* pointer slot, shadow rhs *)
  | CSet_mem_const of int * bool
  | CSet_mem_object of int * bool
  | CSet_global of int * sop
  | CCheck of int option * label                 (* slot (None = undef op) *)

(* A shadow statement and the mask of the lanes that execute it. [cls]
   names the counter set it charges: one per distinct lane mask. *)
type caction = { act : cact; lanes : int; cls : int }

(* A phi's folded shadow item, for the lanes whose plans share its arms. *)
type cphi_shadow = { sharms : (int * sop) array; sh_lanes : int; sh_cls : int }

type csize = CFields of int | CArray of rop

type ckind =
  | CConst of int * int
  | CCopy of int * rop
  | CUnop of int * unop * rop
  | CBinop of int * binop * rop * rop
  | CAlloc of { dst : int; init : bool; size : csize; name : string }
  | CLoad of int * int
  | CStore of int * rop
  | CField of int * int * int
  | CIndex of int * int * rop
  | CGlobaladdr of int * int                     (* dst slot, global objid *)
  | CFuncaddr of int * string
  | CCall of { dst : int option; callee : ccallee; args : rop array }
  | CPhi of { dst : int; arms : (int * rop) array; sh : cphi_shadow array }
  | COutput of rop
  | CInput of int

and ccallee = CDirect of string | CIndirect of int

type cinstr = {
  clbl : label;
  ckind : ckind;
  pre : caction array;
  post : caction array;
}

type cterm =
  | CTBr of rop * int * int
  | CTJmp of int
  | CTRet of rop option

type cblock = {
  body : cinstr array;
  cterm : cterm;
  term_lbl : label;
  term_pre : caction array;
}

type cfunc = {
  cfname : string;
  nslots : int;
  cparams : int array;
  entry_acts : caction array;
  cblocks : cblock array;
}

type cprog = {
  funcs : (string, cfunc) Hashtbl.t;
  global_objid : (string, int) Hashtbl.t;
  globals : global list;
  main : cfunc;
  nglobal_slots : int;   (* sigma_g size *)
  has_shadow : bool;     (* any instrumentation at all in any plan *)
  max_slots : int;       (* max nslots over all functions, >= 1 *)
  nlanes : int;          (* plans attached, one lane each *)
  class_lanes : int array; (* counter class -> its lane mask *)
}

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Compilation runs in two steps. [compile_base] does the plan-independent
   work once per program: slot assignment, instruction kinds, terminators
   and parameters. [attach_lanes] adds the plans' actions to a base, so a
   native run and every plan run of one program share a single base. *)

(* One function of a base: its compiled form with no actions attached, and
   the variable held in each of its slots. *)
type bfunc = { bare : cfunc; slot_vars : var array }

type base = {
  prog : P.t;
  bfuncs : bfunc array;                          (* program order *)
  bglobal_objid : (string, int) Hashtbl.t;
}

let compile_base (p : P.t) : base =
  Obs.Trace.with_span ~cat:"runtime" "runtime.compile_base" @@ fun () ->
  let global_objid = Hashtbl.create 16 in
  List.iteri (fun i (g : global) -> Hashtbl.replace global_objid g.gname i) p.globals;
  (* Frame slot of each variable in the function being compiled, -1 when it
     has none yet; slots are numbered in first-use order. One array serves
     every function: the variables a function touched are reset after it. *)
  let slot = Array.make (P.nvars p) (-1) in
  let bfuncs = ref [] in
  P.iter_funcs
    (fun f ->
      let nslots = ref 0 in
      let touched = ref [] in
      let slot_of v =
        let s = slot.(v) in
        if s >= 0 then s
        else begin
          let s = !nslots in
          incr nslots;
          slot.(v) <- s;
          touched := v :: !touched;
          s
        end
      in
      let rop = function
        | Cst n -> Rc n
        | Var v -> Rs (slot_of v)
        | Undef -> Ru
      in
      let cinstr (i : instr) =
        let ckind =
          match i.kind with
          | Const (x, n) -> CConst (slot_of x, n)
          | Copy (x, o) -> CCopy (slot_of x, rop o)
          | Unop (x, u, o) -> CUnop (slot_of x, u, rop o)
          | Binop (x, bop, o1, o2) -> CBinop (slot_of x, bop, rop o1, rop o2)
          | Alloc a ->
            CAlloc
              {
                dst = slot_of a.adst;
                init = a.initialized;
                size =
                  (match a.asize with
                  | Fields n -> CFields n
                  | Array_of o -> CArray (rop o));
                name = a.aname;
              }
          | Load (x, y) -> CLoad (slot_of x, slot_of y)
          | Store (x, o) -> CStore (slot_of x, rop o)
          | Field_addr (x, y, k) -> CField (slot_of x, slot_of y, k)
          | Index_addr (x, y, o) -> CIndex (slot_of x, slot_of y, rop o)
          | Global_addr (x, gname) ->
            CGlobaladdr (slot_of x, Hashtbl.find global_objid gname)
          | Func_addr (x, fn) -> CFuncaddr (slot_of x, fn)
          | Call { cdst; callee; cargs } ->
            CCall
              {
                dst = Option.map slot_of cdst;
                callee =
                  (match callee with
                  | Direct fn -> CDirect fn
                  | Indirect v -> CIndirect (slot_of v));
                args = Array.of_list (List.map rop cargs);
              }
          | Phi (x, arms) ->
            CPhi
              {
                dst = slot_of x;
                arms = Array.of_list (List.map (fun (pb, o) -> (pb, rop o)) arms);
                sh = [||];
              }
          | Output o -> COutput (rop o)
          | Input x -> CInput (slot_of x)
        in
        { clbl = i.lbl; ckind; pre = [||]; post = [||] }
      in
      let cblocks =
        Array.map
          (fun (b : block) ->
            let body = Array.of_list (List.map cinstr b.instrs) in
            let cterm =
              match b.term.tkind with
              | Br (o, b1, b2) -> CTBr (rop o, b1, b2)
              | Jmp b1 -> CTJmp b1
              | Ret o -> CTRet (Option.map rop o)
            in
            { body; cterm; term_lbl = b.term.tlbl; term_pre = [||] })
          f.blocks
      in
      let cparams = Array.of_list (List.map slot_of f.params) in
      let slot_vars = Array.make !nslots 0 in
      List.iter
        (fun v ->
          slot_vars.(slot.(v)) <- v;
          slot.(v) <- -1)
        !touched;
      let bare =
        { cfname = f.fname; nslots = !nslots; cparams; entry_acts = [||]; cblocks }
      in
      bfuncs := { bare; slot_vars } :: !bfuncs)
    p;
  if not (List.exists (fun bf -> bf.bare.cfname = "main") !bfuncs) then
    error "program has no main";
  {
    prog = p;
    bfuncs = Array.of_list (List.rev !bfuncs);
    bglobal_objid = global_objid;
  }

let program (b : base) = b.prog

(* Lanes live in the bits of an int; the sign bit stays unused. *)
let max_lanes = Sys.int_size - 1

(* One statement's actions merged over the lanes, as (action, lane mask)
   pairs in a buffer reused from statement to statement. Lane by lane,
   [put] adds the lane's actions in order: an action joins an equal entry
   at or past [at], the point the lane has reached, so actions that lanes
   share run once; otherwise it is inserted at [at]. Restricted to lane k,
   the buffer is then exactly lane k's list. *)
type woven = {
  mutable acts : Item.action array;
  mutable masks : int array;
  mutable len : int;
  mutable at : int;
}

let woven () =
  { acts = Array.make 8 (Item.Check Undef); masks = Array.make 8 0; len = 0; at = 0 }

let put w bit a =
  let j = ref w.at in
  while !j < w.len && not (Item.same_action w.acts.(!j) a) do
    incr j
  done;
  if !j < w.len then w.masks.(!j) <- w.masks.(!j) lor bit
  else begin
    if w.len = Array.length w.acts then begin
      w.acts <- Array.append w.acts w.acts;
      w.masks <- Array.append w.masks w.masks
    end;
    j := w.at;
    if !j < w.len then begin
      Array.blit w.acts !j w.acts (!j + 1) (w.len - !j);
      Array.blit w.masks !j w.masks (!j + 1) (w.len - !j)
    end;
    w.acts.(!j) <- a;
    w.masks.(!j) <- bit;
    w.len <- w.len + 1
  end;
  w.at <- !j + 1

(* The buffer as an array of [f action mask], which empties it. *)
let take w dummy f =
  let a = Array.make w.len dummy in
  for j = 0 to w.len - 1 do
    a.(j) <- f w.acts.(j) w.masks.(j)
  done;
  w.len <- 0;
  a

let attach_lanes (b : base) (plans : Item.plan list) : cprog =
  let plans = Array.of_list plans in
  let nlanes = Array.length plans in
  if nlanes > max_lanes then
    invalid_arg
      (Printf.sprintf "Interp.attach_lanes: %d plans, at most %d lanes" nlanes
         max_lanes);
  Obs.Trace.with_span ~cat:"runtime" "runtime.attach" @@ fun () ->
  let slot = Array.make (P.nvars b.prog) (-1) in
  let funcs = Hashtbl.create 16 in
  let max_slots = ref 1 in
  (* One counter class per distinct lane mask, numbered in first-use
     order. Every action and phi shadow has one, so a program without
     classes instruments nothing. *)
  let class_lanes = ref (Array.make 8 0) and nclasses = ref 0 in
  let cls_of m =
    let c = ref 0 in
    while !c < !nclasses && !class_lanes.(!c) <> m do
      incr c
    done;
    if !c = !nclasses then begin
      if !c = Array.length !class_lanes then
        class_lanes := Array.append !class_lanes !class_lanes;
      !class_lanes.(!c) <- m;
      incr nclasses
    end;
    !c
  in
  (* A phi's own shadow items are woven apart, into [arms]. *)
  let pre = woven () and post = woven () and arms = woven () in
  let instrumented lbl =
    let any = ref false in
    for k = 0 to nlanes - 1 do
      if plans.(k).items.(lbl) != [] then any := true
    done;
    !any
  in
  Array.iter
    (fun { bare = f; slot_vars } ->
      Array.iteri (fun s v -> slot.(v) <- s) slot_vars;
      (* A variable that only a plan mentions gets a slot past the base's,
         shared by every lane. *)
      let nslots = ref f.nslots in
      let fresh = ref [] in
      let slot_of v =
        let s = slot.(v) in
        if s >= 0 then s
        else begin
          let s = !nslots in
          incr nslots;
          slot.(v) <- s;
          fresh := v :: !fresh;
          s
        end
      in
      let sop = function
        | Cst _ -> Sc true
        | Undef -> Sc false
        | Var v -> Ss (slot_of v)
      in
      (* [lbl] is the statement a check reports; entry checks carry -1. *)
      let cact lbl (a : Item.action) : cact =
        match a with
        | Item.Set_var (x, rhs) ->
          let crhs =
            match rhs with
            | Item.Rconst b -> CRconst b
            | Item.Rvar y -> CRvar (slot_of y)
            | Item.Rconj ys -> CRconj (Array.of_list (List.map slot_of ys))
            | Item.Rmem y -> CRmem (slot_of y)
            | Item.Rglobal i -> CRglobal i
            | Item.Rphi arms ->
              CRphi (Array.of_list (List.map (fun (b, o) -> (b, sop o)) arms))
          in
          CSet_var (slot_of x, crhs)
        | Item.Set_mem (x, Item.Mop o) -> CSet_mem (slot_of x, sop o)
        | Item.Set_mem (x, Item.Mconst b) -> CSet_mem_const (slot_of x, b)
        | Item.Set_mem_object (x, b) -> CSet_mem_object (slot_of x, b)
        | Item.Set_global (i, o) -> CSet_global (i, sop o)
        | Item.Check o -> (
          match o with
          | Var v -> CCheck (Some (slot_of v), lbl)
          | Undef -> CCheck (None, lbl)
          | Cst _ -> CCheck (None, -2) (* never emitted; treated as pass *))
      in
      let actions w lbl =
        if w.len = 0 then [||]
        else
          take w { act = CSet_global (0, Sc true); lanes = 0; cls = 0 } (fun a m ->
              { act = cact lbl a; lanes = m; cls = cls_of m })
      in
      (* Weave lane [bit]'s items into [pre] and [post], oldest first (a
         plan holds them newest first). The items of the phi defining slot
         [phi] go to its folded shadow instead: the lane's first, the rest
         dropped. The result says whether the lane folded one. *)
      let rec weave_items bit phi = function
        | [] -> false
        | (it : Item.item) :: older -> (
          let folded = weave_items bit phi older in
          match (it.pos, it.act) with
          | Item.Before, act ->
            put pre bit act;
            folded
          | Item.After, (Item.Set_var (x, Item.Rphi _) as act)
            when phi >= 0 && slot.(x) = phi ->
            if not folded then put arms bit act;
            true
          | Item.After, act ->
            put post bit act;
            folded)
      in
      let weave ?(phi = -1) lbl =
        for k = 0 to nlanes - 1 do
          match plans.(k).items.(lbl) with
          | [] -> ()
          | items ->
            pre.at <- 0;
            post.at <- 0;
            arms.at <- 0;
            ignore (weave_items (1 lsl k) phi items)
        done
      in
      let cinstr (ci : cinstr) =
        if not (instrumented ci.clbl) then ci
        else begin
          let ckind =
            match ci.ckind with
            | CPhi phi ->
              (* Each lane's first shadow item for the phi itself is folded
                 into the phi for atomic parallel evaluation. *)
              weave ci.clbl ~phi:phi.dst;
              let sh =
                take arms { sharms = [||]; sh_lanes = 0; sh_cls = 0 } (fun a m ->
                    let a = match a with Item.Set_var (_, Item.Rphi a) -> a | _ -> [] in
                    {
                      sharms = Array.of_list (List.map (fun (pb, o) -> (pb, sop o)) a);
                      sh_lanes = m;
                      sh_cls = cls_of m;
                    })
              in
              if Array.length sh = 0 then ci.ckind else CPhi { phi with sh }
            | k ->
              weave ci.clbl;
              k
          in
          let pre = actions pre ci.clbl in
          { ci with ckind; pre; post = actions post ci.clbl }
        end
      in
      let cblocks =
        Array.map
          (fun (cb : cblock) ->
            let body = Array.map cinstr cb.body in
            if not (instrumented cb.term_lbl) then { cb with body }
            else begin
              (* A terminator runs its items before it. *)
              weave cb.term_lbl;
              post.len <- 0;
              { cb with body; term_pre = actions pre cb.term_lbl }
            end)
          f.cblocks
      in
      for k = 0 to nlanes - 1 do
        pre.at <- 0;
        List.iter (put pre (1 lsl k)) (Item.entry_items plans.(k) f.cfname)
      done;
      let entry_acts = actions pre (-1) in
      Array.iter (fun v -> slot.(v) <- -1) slot_vars;
      List.iter (fun v -> slot.(v) <- -1) !fresh;
      if !nslots > !max_slots then max_slots := !nslots;
      Hashtbl.replace funcs f.cfname
        { f with nslots = !nslots; entry_acts; cblocks })
    b.bfuncs;
  {
    funcs;
    global_objid = b.bglobal_objid;
    globals = b.prog.globals;
    main = Hashtbl.find funcs "main";
    nglobal_slots =
      Array.fold_left (fun n (p : Item.plan) -> max n (p.ret_slot + 1)) 1 plans;
    (* An un-instrumented run shares one dummy shadow register file across
       all frames. *)
    has_shadow = !nclasses > 0;
    max_slots = !max_slots;
    nlanes;
    class_lanes = Array.sub !class_lanes 0 !nclasses;
  }

let attach (b : base) (plan : Item.plan) : cprog = attach_lanes b [ plan ]

let compile (p : P.t) (plan : Item.plan) : cprog = attach (compile_base p) plan

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type outcome = {
  outputs : int list;                    (* program output stream *)
  exit_value : int;
  counters : Counters.t;
  detections : (label, unit) Hashtbl.t;  (* E(l): checks that fired *)
  gt_uses : (label, unit) Hashtbl.t;     (* ground-truth undefined uses *)
  steps : int;
}

(* One execution of a multi-lane program: each lane's outcome, and the
   native outcome of the same concrete execution. *)
type lane_outcomes = { native : outcome; per_lane : outcome array }

type limits = { max_steps : int; max_objects : int; max_depth : int }

let default_limits = { max_steps = 50_000_000; max_objects = 4_000_000; max_depth = 10_000 }

(* A call's activation record. The register files are inherently per-frame;
   everything that used to be allocated alongside them on every call — the
   interpreter's closures, the phi scratch buffers, the shadow file when
   the plan is empty — is hoisted into [state] so calls allocate only what
   frame semantics demand. *)
type frame = {
  regs : value array;
  sregs : int array;              (* lane masks *)
  mutable prev_bid : int;
}

type state = {
  prog : cprog;
  mutable objs : mobj array;
  mutable nobjs : int;
  sigma_g : int array;
  cnt : Counters.t;               (* base program counters, shared by lanes *)
  ccnt : Counters.t array;        (* shadow counters per counter class *)
  det : (label, unit) Hashtbl.t array;  (* per lane *)
  gt : (label, unit) Hashtbl.t;
  mutable outputs_rev : int list;
  mutable steps : int;
  mutable input_state : int;
  limits : limits;
  dummy_sregs : int array;        (* shared shadow file: un-instrumented runs *)
  mutable phi_vals : value array; (* parallel-phi scratch, grown on demand *)
  mutable phi_shs : int array;
  mutable phi_has : int array;    (* lanes whose shadow the phi writes *)
}

let new_obj st ~cells ~init ~name : int =
  if st.nobjs >= st.limits.max_objects then
    exhausted "objects" st.limits.max_objects;
  let id = st.nobjs in
  let cells_arr =
    Array.init (max cells 1) (fun off ->
        if init then vint 0 else garbage ~objid:id ~off)
  in
  let o = { cells = cells_arr; shadow = Array.make (max cells 1) (-1); obj_name = name } in
  if st.nobjs >= Array.length st.objs then begin
    let objs = Array.make (max 64 (2 * Array.length st.objs)) o in
    Array.blit st.objs 0 objs 0 st.nobjs;
    st.objs <- objs
  end;
  st.objs.(st.nobjs) <- o;
  st.nobjs <- st.nobjs + 1;
  id

let as_int (v : value) : int =
  match v.v with
  | Vint n -> n
  | Vptr (o, off) -> (o lsl 20) lor (off land 0xfffff)
  | Vfun _ -> 1

(* Process-wide dynamic-work totals (Obs.Metrics), published once per run;
   the per-outcome [Counters.t] stays the cost model's input. [interp.runs]
   and [interp.base_ops] count executions; [interp.shadow_ops] and
   [interp.detections] sum over lanes. *)
let m_runs = Obs.Metrics.counter "interp.runs"
let m_base_ops = Obs.Metrics.counter "interp.base_ops"
let m_shadow_ops = Obs.Metrics.counter "interp.shadow_ops"
let m_detections = Obs.Metrics.counter "interp.detections"

let undef_value = { v = Vint 0xDEAD; def = false }
let phi_default = { v = Vint 0; def = false }

let rvalue (regs : value array) (o : rop) : value =
  match o with
  | Rc n -> vint n
  | Rs s -> regs.(s)
  | Ru -> undef_value

(* A shadow for every lane at once: all ones is "defined" in every lane. *)
let lanes_of_bool b = if b then -1 else 0

let svalue (sregs : int array) (s : sop) : int =
  match s with Sc b -> lanes_of_bool b | Ss s -> sregs.(s)

(* [old] with the bits in mask [m] taken from [v]. *)
let masked old v m = old lxor ((old lxor v) land m)

let deref st ~what (v : value) : int * int =
  match v.v with
  | Vptr (o, off) ->
    if o < 0 || o >= st.nobjs then error "%s: dangling pointer" what;
    let cells = st.objs.(o).cells in
    if off < 0 || off >= Array.length cells then
      error "%s: out-of-bounds access to %s[%d]" what st.objs.(o).obj_name off;
    (o, off)
  | Vint _ | Vfun _ -> error "%s: not a pointer" what

(* First arm whose predecessor block is [pb]; -1 when absent. *)
let rec arm_index (arms : (int * 'a) array) (pb : int) (i : int) : int =
  if i >= Array.length arms then -1
  else if fst (Array.unsafe_get arms i) = pb then i
  else arm_index arms pb (i + 1)

let rec all_set (sregs : int array) (ys : int array) (i : int) (acc : int) : int =
  if i >= Array.length ys then acc
  else all_set sregs ys (i + 1) (acc land sregs.(ys.(i)))

(* Every lane in [bad] records a detection at [lbl]. *)
let detect st bad lbl =
  let bad = ref bad and k = ref 0 in
  while !bad <> 0 do
    if !bad land 1 <> 0 then Hashtbl.replace st.det.(!k) lbl ();
    bad := !bad lsr 1;
    incr k
  done

let exec_action st (fr : frame) (a : caction) =
  let cnt = Array.unsafe_get st.ccnt a.cls and m = a.lanes in
  match a.act with
  | CSet_var (x, rhs) ->
    cnt.sh_reg <- cnt.sh_reg + 1;
    let v =
      match rhs with
      | CRconst b -> lanes_of_bool b
      | CRvar y ->
        cnt.sh_reg_reads <- cnt.sh_reg_reads + 1;
        fr.sregs.(y)
      | CRconj ys ->
        cnt.sh_reg_reads <- cnt.sh_reg_reads + Array.length ys;
        all_set fr.sregs ys 0 (-1)
      | CRmem y ->
        cnt.sh_mem <- cnt.sh_mem + 1;
        let o, off = deref st ~what:"shadow load" fr.regs.(y) in
        st.objs.(o).shadow.(off)
      | CRglobal i ->
        cnt.sh_reg_reads <- cnt.sh_reg_reads + 1;
        st.sigma_g.(i)
      | CRphi arms ->
        cnt.sh_reg_reads <- cnt.sh_reg_reads + 1;
        let i = arm_index arms fr.prev_bid 0 in
        if i >= 0 then svalue fr.sregs (snd arms.(i)) else -1
    in
    fr.sregs.(x) <- masked fr.sregs.(x) v m
  | CSet_mem (x, s) ->
    cnt.sh_mem <- cnt.sh_mem + 1;
    let o, off = deref st ~what:"shadow store" fr.regs.(x) in
    let sh = st.objs.(o).shadow in
    sh.(off) <- masked sh.(off) (svalue fr.sregs s) m
  | CSet_mem_const (x, b) ->
    cnt.sh_mem <- cnt.sh_mem + 1;
    let o, off = deref st ~what:"shadow store" fr.regs.(x) in
    let sh = st.objs.(o).shadow in
    sh.(off) <- masked sh.(off) (lanes_of_bool b) m
  | CSet_mem_object (x, b) ->
    cnt.sh_obj <- cnt.sh_obj + 1;
    let o, _ = deref st ~what:"shadow object init" fr.regs.(x) in
    let sh = st.objs.(o).shadow in
    cnt.sh_obj_cells <- cnt.sh_obj_cells + Array.length sh;
    let v = lanes_of_bool b in
    for i = 0 to Array.length sh - 1 do
      sh.(i) <- masked sh.(i) v m
    done
  | CSet_global (i, s) ->
    cnt.sh_reg <- cnt.sh_reg + 1;
    cnt.sh_reg_reads <- cnt.sh_reg_reads + (match s with Ss _ -> 1 | Sc _ -> 0);
    st.sigma_g.(i) <- masked st.sigma_g.(i) (svalue fr.sregs s) m
  | CCheck (slot, lbl) ->
    cnt.sh_check <- cnt.sh_check + 1;
    let ok = match slot with Some s -> fr.sregs.(s) | None -> 0 in
    let bad = m land lnot ok in
    if bad <> 0 then detect st bad lbl

let exec_actions st fr (acts : caction array) =
  for i = 0 to Array.length acts - 1 do
    exec_action st fr acts.(i)
  done

let ensure_phi_scratch st n =
  if Array.length st.phi_vals < n then begin
    st.phi_vals <- Array.make n phi_default;
    st.phi_shs <- Array.make n 0;
    st.phi_has <- Array.make n 0
  end

let rec exec_call st (f : cfunc) (args : value array) ~depth : value =
  if depth > st.limits.max_depth then
    exhausted "call depth" st.limits.max_depth;
  let regs = Array.make (max 1 f.nslots) (vint 0) in
  let sregs =
    if st.prog.has_shadow then Array.make (max 1 f.nslots) (-1)
    else st.dummy_sregs
  in
  let fr = { regs; sregs; prev_bid = 0 } in
  let np = Array.length f.cparams and na = Array.length args in
  for i = 0 to np - 1 do
    if i < na then regs.(f.cparams.(i)) <- args.(i)
  done;
  exec_actions st fr f.entry_acts;
  exec_block st f fr 0 ~depth

and exec_block st (f : cfunc) (fr : frame) (bid : int) ~depth : value =
  let cnt = st.cnt in
  let regs = fr.regs in
  let b = f.cblocks.(bid) in
  let n = Array.length b.body in
  (* Leading phis evaluate in parallel. *)
  let nphis = ref 0 in
  while
    !nphis < n
    && match b.body.(!nphis).ckind with CPhi _ -> true | _ -> false
  do
    incr nphis
  done;
  if !nphis > 0 then begin
    ensure_phi_scratch st !nphis;
    let vals = st.phi_vals and shs = st.phi_shs and has = st.phi_has in
    for i = 0 to !nphis - 1 do
      match b.body.(i).ckind with
      | CPhi { arms; sh; _ } ->
        cnt.alu <- cnt.alu + 1;
        (let k = arm_index arms fr.prev_bid 0 in
         if k >= 0 then vals.(i) <- rvalue regs (snd arms.(k))
         else vals.(i) <- phi_default);
        (* Each entry's lanes are disjoint from the others'. *)
        let w = ref 0 and v = ref 0 in
        for j = 0 to Array.length sh - 1 do
          let { sharms; sh_lanes; sh_cls } = sh.(j) in
          let c = Array.unsafe_get st.ccnt sh_cls in
          c.sh_reg <- c.sh_reg + 1;
          c.sh_reg_reads <- c.sh_reg_reads + 1;
          let k = arm_index sharms fr.prev_bid 0 in
          let s = if k >= 0 then svalue fr.sregs (snd sharms.(k)) else -1 in
          v := !v lor (s land sh_lanes);
          w := !w lor sh_lanes
        done;
        has.(i) <- !w;
        shs.(i) <- !v
      | _ -> assert false
    done;
    for i = 0 to !nphis - 1 do
      match b.body.(i).ckind with
      | CPhi { dst; _ } ->
        regs.(dst) <- vals.(i);
        if has.(i) <> 0 then
          fr.sregs.(dst) <- masked fr.sregs.(dst) shs.(i) has.(i);
        (* Non-phi shadow items attached to the phi still run. *)
        exec_actions st fr b.body.(i).pre;
        exec_actions st fr b.body.(i).post
      | _ -> assert false
    done
  end;
  for idx = !nphis to n - 1 do
    let i = b.body.(idx) in
    st.steps <- st.steps + 1;
    if st.steps > st.limits.max_steps then
      exhausted "steps" st.limits.max_steps;
    exec_actions st fr i.pre;
    (match i.ckind with
    | CConst (x, n) ->
      cnt.alu <- cnt.alu + 1;
      regs.(x) <- vint n
    | CCopy (x, o) ->
      cnt.alu <- cnt.alu + 1;
      regs.(x) <- rvalue regs o
    | CUnop (x, u, o) ->
      cnt.alu <- cnt.alu + 1;
      let a = rvalue regs o in
      let n = as_int a in
      let r = eval_unop u n in
      regs.(x) <- { v = Vint r; def = a.def }
    | CBinop (x, bop, o1, o2) ->
      cnt.alu <- cnt.alu + 1;
      let a = rvalue regs o1 and c = rvalue regs o2 in
      let r =
        match (bop, a.v, c.v) with
        | Eq, Vptr (p, q), Vptr (p', q') -> if p = p' && q = q' then 1 else 0
        | Ne, Vptr (p, q), Vptr (p', q') -> if p = p' && q = q' then 0 else 1
        | _ -> eval_binop bop (as_int a) (as_int c)
      in
      regs.(x) <- { v = Vint r; def = a.def && c.def }
    | CAlloc { dst; init; size; name } ->
      cnt.alloc <- cnt.alloc + 1;
      let cells =
        match size with
        | CFields n -> n
        | CArray o ->
          let v = rvalue regs o in
          if not v.def then error "allocation with undefined size";
          max 0 (min (as_int v) 10_000_000)
      in
      cnt.alloc_cells <- cnt.alloc_cells + cells;
      let id = new_obj st ~cells ~init ~name in
      regs.(dst) <- { v = Vptr (id, 0); def = true }
    | CLoad (x, y) ->
      cnt.mem <- cnt.mem + 1;
      let pv = regs.(y) in
      if not pv.def then Hashtbl.replace st.gt i.clbl ();
      let o, off = deref st ~what:"load" pv in
      regs.(x) <- st.objs.(o).cells.(off)
    | CStore (x, o) ->
      cnt.mem <- cnt.mem + 1;
      let pv = regs.(x) in
      if not pv.def then Hashtbl.replace st.gt i.clbl ();
      let ob, off = deref st ~what:"store" pv in
      st.objs.(ob).cells.(off) <- rvalue regs o
    | CField (x, y, k) ->
      cnt.alu <- cnt.alu + 1;
      let pv = regs.(y) in
      (match pv.v with
      | Vptr (o, off) -> regs.(x) <- { v = Vptr (o, off + k); def = pv.def }
      | Vint _ | Vfun _ -> regs.(x) <- { pv with def = false })
    | CIndex (x, y, o) ->
      cnt.alu <- cnt.alu + 1;
      let pv = regs.(y) in
      let iv = rvalue regs o in
      (match pv.v with
      | Vptr (ob, off) ->
        regs.(x) <- { v = Vptr (ob, off + as_int iv); def = pv.def && iv.def }
      | Vint _ | Vfun _ -> regs.(x) <- { pv with def = false })
    | CGlobaladdr (x, objid) ->
      cnt.alu <- cnt.alu + 1;
      regs.(x) <- { v = Vptr (objid, 0); def = true }
    | CFuncaddr (x, fn) ->
      cnt.alu <- cnt.alu + 1;
      regs.(x) <- { v = Vfun fn; def = true }
    | CCall { dst; callee; args } ->
      cnt.call <- cnt.call + 1;
      let fn =
        match callee with
        | CDirect fn -> fn
        | CIndirect s -> (
          match regs.(s).v with
          | Vfun fn -> fn
          | Vint _ | Vptr _ -> error "indirect call through non-function")
      in
      let callee_f =
        match Hashtbl.find_opt st.prog.funcs fn with
        | Some cf -> cf
        | None -> error "call to unknown function %s" fn
      in
      let nargs = Array.length args in
      let argv =
        if nargs = 0 then [||]
        else begin
          let a = Array.make nargs phi_default in
          for i = 0 to nargs - 1 do
            a.(i) <- rvalue regs args.(i)
          done;
          a
        end
      in
      let r = exec_call st callee_f argv ~depth:(depth + 1) in
      (match dst with Some x -> regs.(x) <- r | None -> ())
    | CPhi _ -> error "phi in block body (not at head)"
    | COutput o ->
      cnt.io <- cnt.io + 1;
      st.outputs_rev <- as_int (rvalue regs o) :: st.outputs_rev
    | CInput x ->
      cnt.io <- cnt.io + 1;
      st.input_state <- (st.input_state * 1103515245) + 12345;
      regs.(x) <- vint ((st.input_state lsr 16) land 0x7fff));
    exec_actions st fr i.post
  done;
  exec_actions st fr b.term_pre;
  (* Terminators count as steps too, or an empty infinite loop would
     never hit the step limit. *)
  st.steps <- st.steps + 1;
  if st.steps > st.limits.max_steps then
    exhausted "steps" st.limits.max_steps;
  match b.cterm with
  | CTBr (o, b1, b2) ->
    cnt.branch <- cnt.branch + 1;
    let v = rvalue regs o in
    if not v.def then Hashtbl.replace st.gt b.term_lbl ();
    fr.prev_bid <- bid;
    exec_block st f fr (if as_int v <> 0 then b1 else b2) ~depth
  | CTJmp b1 ->
    fr.prev_bid <- bid;
    exec_block st f fr b1 ~depth
  | CTRet o -> (
    cnt.call <- cnt.call + 1;
    match o with Some o -> rvalue regs o | None -> phi_default)

let run_lanes ?(limits = default_limits) (cp : cprog) : lane_outcomes =
  let st =
    {
      prog = cp;
      objs = Array.make 64 { cells = [||]; shadow = [||]; obj_name = "!" };
      nobjs = 0;
      sigma_g = Array.make (max 1 cp.nglobal_slots) (-1);
      cnt = Counters.create ();
      ccnt = Array.map (fun _ -> Counters.create ()) cp.class_lanes;
      det = Array.init cp.nlanes (fun _ -> Hashtbl.create 16);
      gt = Hashtbl.create 16;
      outputs_rev = [];
      steps = 0;
      input_state = 0x9e3779b9;
      limits;
      dummy_sregs = Array.make cp.max_slots (-1);
      phi_vals = [||];
      phi_shs = [||];
      phi_has = [||];
    }
  in
  (* Allocate and initialize globals (C default-initialization: defined). *)
  List.iter
    (fun (g : global) ->
      let cells =
        match g.gsize with
        | Fields n -> n
        | Array_of (Cst n) -> n
        | Array_of _ -> error "global %s has dynamic size" g.gname
      in
      let id = new_obj st ~cells ~init:true ~name:g.gname in
      List.iteri
        (fun i n -> if i < cells then st.objs.(id).cells.(i) <- vint n)
        g.ginit;
      assert (id = Hashtbl.find cp.global_objid g.gname))
    cp.globals;
  let r =
    if Obs.Trace.enabled () then
      Obs.Trace.with_span ~cat:"interp"
        ~args:[ ("lanes", Obs.Trace.Int cp.nlanes) ]
        "interp.run"
        (fun () -> exec_call st cp.main [||] ~depth:0)
    else exec_call st cp.main [||] ~depth:0
  in
  let native =
    {
      outputs = List.rev st.outputs_rev;
      exit_value = as_int r;
      counters = st.cnt;
      detections = Hashtbl.create 1;
      gt_uses = st.gt;
      steps = st.steps;
    }
  in
  (* Lane k's counters: the shared base counts plus the shadow counts of
     every class that includes lane k. *)
  let lane k =
    let c = Counters.copy st.cnt in
    Array.iteri
      (fun cls m ->
        if m land (1 lsl k) <> 0 then Counters.add_shadow c st.ccnt.(cls))
      cp.class_lanes;
    { native with counters = c; detections = st.det.(k); gt_uses = Hashtbl.copy st.gt }
  in
  let per_lane = Array.init cp.nlanes lane in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_base_ops (Counters.base_ops st.cnt);
  Array.iter
    (fun o ->
      Obs.Metrics.add m_shadow_ops (Counters.shadow_ops o.counters);
      Obs.Metrics.add m_detections (Hashtbl.length o.detections))
    per_lane;
  { native; per_lane }

let run ?limits (cp : cprog) : outcome =
  if cp.nlanes <> 1 then
    invalid_arg
      (Printf.sprintf "Interp.run: %d lanes; use run_lanes" cp.nlanes);
  (run_lanes ?limits cp).per_lane.(0)

(* ------------------------------------------------------------------ *)

(** Run a program natively (no instrumentation). *)
let run_native ?limits (p : P.t) : outcome =
  run ?limits (compile p (Item.empty_plan p))

(** Run under a plan. *)
let run_plan ?limits (p : P.t) (plan : Item.plan) : outcome =
  run ?limits (compile p plan)

(* ------------------------------------------------------------------ *)
(* Stable sorted views of an outcome's two label sets. *)

let sorted_labels (h : (label, unit) Hashtbl.t) : label list =
  Hashtbl.fold (fun l () acc -> l :: acc) h [] |> List.sort compare

let detection_labels (o : outcome) : label list = sorted_labels o.detections
let gt_use_labels (o : outcome) : label list = sorted_labels o.gt_uses
