(* The shadow-memory execution engine: a direct interpreter for the IR that
   simultaneously

   - executes the concrete program, with *ground-truth* definedness carried
     on every value (the interpreter always knows whether a value is
     garbage; that is the oracle the instrumented runs are judged against);
   - executes an instrumentation plan (full = the MSan baseline, or any of
     Usher's guided plans): shadow registers per frame, shadow memory per
     object, the sigma_g relay array, and E(l) check records;
   - counts dynamic operations for the cost model.

   Programs are compiled to a slot-resolved form first, so the hot loop
   performs no hash lookups. Shadow state defaults to "defined": shadow
   memory cells are created true and shadow registers start true; only
   instrumented statements ever write them. Garbage cell contents are a
   deterministic function of the object id and offset, so runs are
   reproducible.

   The compiled form is exposed (see interp.mli) so lib/vm can lower the
   exact same slot-resolved program to bytecode: both engines share one
   compilation front, which is what makes outcome-for-outcome equivalence
   a meaningful differential oracle. *)

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
  shadow : bool array;
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

type caction =
  | CSet_var of int * crhs
  | CSet_mem of int * sop                        (* pointer slot, shadow rhs *)
  | CSet_mem_const of int * bool
  | CSet_mem_object of int * bool
  | CSet_global of int * sop
  | CCheck of int option * label                 (* slot (None = undef op) *)

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
  | CPhi of { dst : int; arms : (int * rop) array; sh : (int * sop) array option }
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
  has_shadow : bool;     (* any instrumentation at all in the plan *)
  max_slots : int;       (* max nslots over all functions, >= 1 *)
}

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let compile (p : P.t) (plan : Item.plan) : cprog =
  let global_objid = Hashtbl.create 16 in
  List.iteri (fun i (g : global) -> Hashtbl.replace global_objid g.gname i) p.globals;
  let funcs = Hashtbl.create 16 in
  (* Frame slot of each variable in the function being compiled, -1 when it
     has none yet; slots are numbered in first-use order. One array serves
     every function: the variables a function touched are reset after it. *)
  let slot = Array.make (P.nvars p) (-1) in
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
      let sop = function
        | Cst _ -> Sc true
        | Undef -> Sc false
        | Var v -> Ss (slot_of v)
      in
      let caction (a : Item.action) : caction =
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
          | Var v -> CCheck (Some (slot_of v), -1)
          | Undef -> CCheck (None, -1)
          | Cst _ -> CCheck (None, -2) (* never emitted; treated as pass *))
      in
      let actions_at lbl pos =
        Array.of_list (List.map caction (Item.items_at plan lbl ~pos))
      in
      (* Patch check labels (CCheck carries its statement label). *)
      let patch lbl (a : caction) =
        match a with
        | CCheck (s, -1) -> CCheck (s, lbl)
        | other -> other
      in
      let cblocks =
        Array.map
          (fun (b : block) ->
            let body =
              Array.of_list
                (List.map
                   (fun i ->
                     let ckind =
                       match i.kind with
                       | Const (x, n) -> CConst (slot_of x, n)
                       | Copy (x, o) -> CCopy (slot_of x, rop o)
                       | Unop (x, u, o) -> CUnop (slot_of x, u, rop o)
                       | Binop (x, bop, o1, o2) ->
                         CBinop (slot_of x, bop, rop o1, rop o2)
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
                         (* The phi's shadow item, if any, is folded into the
                            phi itself for atomic parallel evaluation. *)
                         let sh =
                           List.find_map
                             (function
                               | Item.Set_var (x', Item.Rphi sharms) when x' = x ->
                                 Some
                                   (Array.of_list
                                      (List.map (fun (pb, o) -> (pb, sop o)) sharms))
                               | _ -> None)
                             (Item.items_at plan i.lbl ~pos:Item.After)
                         in
                         CPhi
                           {
                             dst = slot_of x;
                             arms =
                               Array.of_list (List.map (fun (pb, o) -> (pb, rop o)) arms);
                             sh;
                           }
                       | Output o -> COutput (rop o)
                       | Input x -> CInput (slot_of x)
                     in
                     let strip_phi_shadow acts =
                       match i.kind with
                       | Phi (x, _) ->
                         Array.of_list
                           (List.filter
                              (function
                                | CSet_var (s, CRphi _) when slot.(x) = s -> false
                                | _ -> true)
                              (Array.to_list acts))
                       | _ -> acts
                     in
                     {
                       clbl = i.lbl;
                       ckind;
                       pre = Array.map (patch i.lbl) (actions_at i.lbl Item.Before);
                       post =
                         strip_phi_shadow
                           (Array.map (patch i.lbl) (actions_at i.lbl Item.After));
                     })
                   b.instrs)
            in
            let cterm =
              match b.term.tkind with
              | Br (o, b1, b2) -> CTBr (rop o, b1, b2)
              | Jmp b1 -> CTJmp b1
              | Ret o -> CTRet (Option.map rop o)
            in
            {
              body;
              cterm;
              term_lbl = b.term.tlbl;
              term_pre = Array.map (patch b.term.tlbl) (actions_at b.term.tlbl Item.Before);
            })
          f.blocks
      in
      let cparams = Array.of_list (List.map slot_of f.params) in
      let entry_acts =
        Array.of_list (List.map caction (Item.entry_items plan f.fname))
      in
      List.iter (fun v -> slot.(v) <- -1) !touched;
      Hashtbl.replace funcs f.fname
        {
          cfname = f.fname;
          nslots = !nslots;
          cparams;
          entry_acts;
          cblocks;
        })
    p;
  let main =
    match Hashtbl.find_opt funcs "main" with
    | Some m -> m
    | None -> error "program has no main"
  in
  (* Whether the plan instruments anything at all: an un-instrumented run
     can share a single dummy shadow register file across all frames. *)
  let has_shadow = ref false in
  let max_slots = ref 1 in
  Hashtbl.iter
    (fun _ (cf : cfunc) ->
      if cf.nslots > !max_slots then max_slots := cf.nslots;
      if Array.length cf.entry_acts > 0 then has_shadow := true;
      Array.iter
        (fun (cb : cblock) ->
          if Array.length cb.term_pre > 0 then has_shadow := true;
          Array.iter
            (fun (ci : cinstr) ->
              if Array.length ci.pre > 0 || Array.length ci.post > 0 then
                has_shadow := true;
              match ci.ckind with
              | CPhi { sh = Some _; _ } -> has_shadow := true
              | _ -> ())
            cb.body)
        cf.cblocks)
    funcs;
  {
    funcs;
    global_objid;
    globals = p.globals;
    main;
    nglobal_slots = plan.ret_slot + 1;
    has_shadow = !has_shadow;
    max_slots = !max_slots;
  }

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

type limits = { max_steps : int; max_objects : int; max_depth : int }

let default_limits = { max_steps = 50_000_000; max_objects = 4_000_000; max_depth = 10_000 }

(* A call's activation record. The register files are inherently per-frame;
   everything that used to be allocated alongside them on every call — the
   interpreter's closures, the phi scratch buffers, the shadow file when
   the plan is empty — is hoisted into [state] so calls allocate only what
   frame semantics demand. *)
type frame = {
  regs : value array;
  sregs : bool array;
  mutable prev_bid : int;
}

type state = {
  prog : cprog;
  mutable objs : mobj array;
  mutable nobjs : int;
  sigma_g : bool array;
  cnt : Counters.t;
  det : (label, unit) Hashtbl.t;
  gt : (label, unit) Hashtbl.t;
  mutable outputs_rev : int list;
  mutable steps : int;
  mutable input_state : int;
  limits : limits;
  dummy_sregs : bool array;       (* shared shadow file: un-instrumented runs *)
  mutable phi_vals : value array; (* parallel-phi scratch, grown on demand *)
  mutable phi_shs : bool array;
  mutable phi_has : bool array;
}

let new_obj st ~cells ~init ~name : int =
  if st.nobjs >= st.limits.max_objects then
    exhausted "objects" st.limits.max_objects;
  let id = st.nobjs in
  let cells_arr =
    Array.init (max cells 1) (fun off ->
        if init then vint 0 else garbage ~objid:id ~off)
  in
  let o = { cells = cells_arr; shadow = Array.make (max cells 1) true; obj_name = name } in
  if st.nobjs >= Array.length st.objs then begin
    let objs = Array.make (max 64 (2 * Array.length st.objs)) o in
    Array.blit st.objs 0 objs 0 st.nobjs;
    st.objs <- objs
  end;
  st.objs.(st.nobjs) <- o;
  st.nobjs <- st.nobjs + 1;
  id

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (min (b land 63) 62)
  | Shr -> a asr (min (b land 63) 62)
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0

let as_int (v : value) : int =
  match v.v with
  | Vint n -> n
  | Vptr (o, off) -> (o lsl 20) lor (off land 0xfffff)
  | Vfun _ -> 1

(* Process-wide dynamic-work totals (Obs.Metrics), published once per run;
   the per-outcome [Counters.t] stays the cost model's input. *)
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

let svalue (sregs : bool array) (s : sop) : bool =
  match s with Sc b -> b | Ss s -> sregs.(s)

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

let rec all_set (sregs : bool array) (ys : int array) (i : int) : bool =
  i >= Array.length ys || (sregs.(ys.(i)) && all_set sregs ys (i + 1))

let exec_action st (fr : frame) (a : caction) =
  let cnt = st.cnt in
  match a with
  | CSet_var (x, rhs) ->
    cnt.sh_reg <- cnt.sh_reg + 1;
    fr.sregs.(x) <-
      (match rhs with
      | CRconst b -> b
      | CRvar y ->
        cnt.sh_reg_reads <- cnt.sh_reg_reads + 1;
        fr.sregs.(y)
      | CRconj ys ->
        cnt.sh_reg_reads <- cnt.sh_reg_reads + Array.length ys;
        all_set fr.sregs ys 0
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
        if i >= 0 then svalue fr.sregs (snd arms.(i)) else true)
  | CSet_mem (x, s) ->
    cnt.sh_mem <- cnt.sh_mem + 1;
    let o, off = deref st ~what:"shadow store" fr.regs.(x) in
    st.objs.(o).shadow.(off) <- svalue fr.sregs s
  | CSet_mem_const (x, b) ->
    cnt.sh_mem <- cnt.sh_mem + 1;
    let o, off = deref st ~what:"shadow store" fr.regs.(x) in
    st.objs.(o).shadow.(off) <- b
  | CSet_mem_object (x, b) ->
    cnt.sh_obj <- cnt.sh_obj + 1;
    let o, _ = deref st ~what:"shadow object init" fr.regs.(x) in
    let sh = st.objs.(o).shadow in
    cnt.sh_obj_cells <- cnt.sh_obj_cells + Array.length sh;
    Array.fill sh 0 (Array.length sh) b
  | CSet_global (i, s) ->
    cnt.sh_reg <- cnt.sh_reg + 1;
    cnt.sh_reg_reads <- cnt.sh_reg_reads + (match s with Ss _ -> 1 | Sc _ -> 0);
    st.sigma_g.(i) <- svalue fr.sregs s
  | CCheck (slot, lbl) ->
    cnt.sh_check <- cnt.sh_check + 1;
    let ok = match slot with Some s -> fr.sregs.(s) | None -> false in
    if not ok then Hashtbl.replace st.det lbl ()

let exec_actions st fr (acts : caction array) =
  for i = 0 to Array.length acts - 1 do
    exec_action st fr acts.(i)
  done

let ensure_phi_scratch st n =
  if Array.length st.phi_vals < n then begin
    st.phi_vals <- Array.make n phi_default;
    st.phi_shs <- Array.make n true;
    st.phi_has <- Array.make n false
  end

let rec exec_call st (f : cfunc) (args : value array) ~depth : value =
  if depth > st.limits.max_depth then
    exhausted "call depth" st.limits.max_depth;
  let regs = Array.make (max 1 f.nslots) (vint 0) in
  let sregs =
    if st.prog.has_shadow then Array.make (max 1 f.nslots) true
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
        (match sh with
        | Some sharms ->
          cnt.sh_reg <- cnt.sh_reg + 1;
          cnt.sh_reg_reads <- cnt.sh_reg_reads + 1;
          has.(i) <- true;
          let k = arm_index sharms fr.prev_bid 0 in
          if k >= 0 then shs.(i) <- svalue fr.sregs (snd sharms.(k))
          else shs.(i) <- true
        | None -> has.(i) <- false)
      | _ -> assert false
    done;
    for i = 0 to !nphis - 1 do
      match b.body.(i).ckind with
      | CPhi { dst; _ } ->
        regs.(dst) <- vals.(i);
        if has.(i) then fr.sregs.(dst) <- shs.(i);
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
      let r = match u with Neg -> -n | Not -> lnot n | Lnot -> if n = 0 then 1 else 0 in
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

let run ?(limits = default_limits) (cp : cprog) : outcome =
  let st =
    {
      prog = cp;
      objs = Array.make 64 { cells = [||]; shadow = [||]; obj_name = "!" };
      nobjs = 0;
      sigma_g = Array.make (max 1 cp.nglobal_slots) true;
      cnt = Counters.create ();
      det = Hashtbl.create 16;
      gt = Hashtbl.create 16;
      outputs_rev = [];
      steps = 0;
      input_state = 0x9e3779b9;
      limits;
      dummy_sregs = Array.make cp.max_slots true;
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
      Obs.Trace.with_span ~cat:"interp" "interp.run" (fun () ->
          exec_call st cp.main [||] ~depth:0)
    else exec_call st cp.main [||] ~depth:0
  in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_base_ops (Counters.base_ops st.cnt);
  Obs.Metrics.add m_shadow_ops (Counters.shadow_ops st.cnt);
  Obs.Metrics.add m_detections (Hashtbl.length st.det);
  {
    outputs = List.rev st.outputs_rev;
    exit_value = as_int r;
    counters = st.cnt;
    detections = st.det;
    gt_uses = st.gt;
    steps = st.steps;
  }

(* ------------------------------------------------------------------ *)

(** Run a program natively (no instrumentation). *)
let run_native ?limits (p : P.t) : outcome =
  run ?limits (compile p (Item.empty_plan p))

(** Run under a plan. *)
let run_plan ?limits (p : P.t) (plan : Item.plan) : outcome =
  run ?limits (compile p plan)

(* ------------------------------------------------------------------ *)
(* Per-label divergence data, for the differential audit (lib/audit):
   stable sorted views of the two label sets an oracle compares, and the
   raw per-label difference between them. *)

let sorted_labels (h : (label, unit) Hashtbl.t) : label list =
  Hashtbl.fold (fun l () acc -> l :: acc) h [] |> List.sort compare

let detection_labels (o : outcome) : label list = sorted_labels o.detections
let gt_use_labels (o : outcome) : label list = sorted_labels o.gt_uses

(** Ground-truth uses with no detection at the same label. A non-empty
    result is not yet a soundness miss — a dominating check may cover the
    use (see [Usher.Experiment.covered]) — but every miss is in here. *)
let missed_labels (o : outcome) : label list =
  List.filter (fun l -> not (Hashtbl.mem o.detections l)) (gt_use_labels o)
