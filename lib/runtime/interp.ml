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
   resolves no names; it hashes only to record ground-truth uses and
   detections. It allocates no values (see Values and memory) and counts
   per block, not per operation (see [settle]). Shadow state defaults to
   "defined": shadow memory cells are created all-ones and shadow
   registers start all-ones; only instrumented statements ever write
   them. Garbage cell contents are a deterministic function of the
   object id and offset, so runs are reproducible.

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

(* A value is three planes: a byte holding its kind (bits 0-1) and its
   ground-truth defined bit (bit 2), and two ints. An integer is (n, -), a
   pointer (object, offset), a function address (function index, -).
   Registers, memory cells, the phi scratch and return values all live in
   planes, so the hot loop allocates no values. *)
let k_ptr = 1 and k_fun = 2 and k_def = 4
let int_def = '\004' and int_undef = '\000'

let[@inline] as_int k a b =
  match k land 3 with 0 -> a | 1 -> (a lsl 20) lor (b land 0xfffff) | _ -> 1

(* Deterministic garbage for uninitialized cells. *)
let garbage ~objid ~off =
  let h = (objid * 2654435761) lxor (off * 40503) in
  (h lxor (h lsr 16)) land 0xffff

type mobj = {
  ck : Bytes.t;                                  (* cell planes *)
  ca : int array;
  cb : int array;
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

(* A shadow statement and the mask of the lanes that execute it. *)
type caction = { act : cact; lanes : int }

(* A phi's folded shadow item, for the lanes whose plans share its arms. *)
type cphi_shadow = { sharms : (int * sop) array; sh_lanes : int }

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
  | CFuncaddr of int * int                       (* dst slot, function index *)
  | CCall of { dst : int option; callee : ccallee; args : rop array }
  | CPhi of { dst : int; arms : (int * rop) array; sh : cphi_shadow array }
  | COutput of rop
  | CInput of int

and ccallee = CDirect of int | CIndirect of int  (* function index / slot *)

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

(* Per execution of a block, [bdelta] holds its base counters at [d_alu]
   .. [d_io], and [sh_delta] lane k's shadow counters at [sh_width * k]
   plus [d_sh_reg] .. [d_sh_check]; it is empty when no lane charges any. *)
let d_alu = 0 and d_mem = 1 and d_branch = 2 and d_call = 3 and d_alloc = 4 and d_io = 5
let d_sh_reg = 0 and d_sh_reads = 1 and d_sh_mem = 2 and d_sh_obj = 3 and d_sh_check = 4
let sh_width = 5

type cblock = {
  body : cinstr array;
  cterm : cterm;
  term_lbl : label;
  term_pre : caction array;
  nphis : int;                                   (* leading phis *)
  nsteps : int;                                  (* the other instrs + terminator *)
  call_free : bool;
  bdelta : int array;
  sh_delta : int array;
}

type cfunc = {
  cfname : string;
  nslots : int;
  cparams : int array;
  entry_acts : caction array;
  entry_delta : int array;                       (* [sh_delta] of [entry_acts] *)
  cblocks : cblock array;
  execs0 : int;          (* entry's execution counter; block b's is 1 + b past it *)
}

type cprog = {
  funcs : cfunc array;                           (* by function index *)
  fnames : string array; (* by function index; past [funcs], undefined names *)
  global_objid : (string, int) Hashtbl.t;
  globals : global list;
  main : cfunc;
  nglobal_slots : int;   (* sigma_g size *)
  has_shadow : bool;     (* any instrumentation at all in any plan *)
  max_slots : int;       (* max nslots over all functions, >= 1 *)
  nlanes : int;          (* plans attached, one lane each *)
}

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Compilation runs in two steps. [compile_base] does the plan-independent
   work once per program: slot assignment, instruction kinds, terminators,
   parameters, callee indices and each block's facts. [attach_lanes] adds
   the plans' actions and their shadow deltas to a base, so a native run
   and every plan run of one program share a single base. *)

(* One function of a base: its compiled form with no actions attached, and
   the variable held in each of its slots. *)
type bfunc = { bare : cfunc; slot_vars : var array }

type base = {
  prog : P.t;
  bfuncs : bfunc array;                          (* by function index *)
  bfnames : string array;
  bmain : int;
  bglobal_objid : (string, int) Hashtbl.t;
}

let is_phi ci = match ci.ckind with CPhi _ -> true | _ -> false

let compile_base (p : P.t) : base =
  Obs.Trace.with_span ~cat:"runtime" "runtime.compile_base" @@ fun () ->
  let global_objid = Hashtbl.create 16 in
  List.iteri (fun i (g : global) -> Hashtbl.replace global_objid g.gname i) p.globals;
  (* Function indices: the program's function numbers, then the names
     that calls and function addresses mention but no function defines,
     in first-mention order. *)
  let ndefined = P.nfuncs p and undefined = ref [] and nundefined = ref 0 in
  let index_of name =
    match P.func_number p name with
    | -1 ->
      (* [undefined] lists the names newest first: the k-th is [ndefined + k]. *)
      let rec find k = function
        | [] ->
          undefined := name :: !undefined;
          incr nundefined;
          ndefined + !nundefined - 1
        | n :: rest -> if n = name then ndefined + k else find (k - 1) rest
      in
      find (!nundefined - 1) !undefined
    | fi -> fi
  in
  (* Frame slot of each variable in the function being compiled, -1 when it
     has none yet; slots are numbered in first-use order. One array serves
     every function: the variables a function touched are reset after it. *)
  let slot = Array.make (P.nvars p) (-1) in
  let bfuncs = ref [] and nexecs = ref 0 in
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
      (* [bd] is the block's base delta. *)
      let cinstr bd (i : instr) =
        let d =
          match i.kind with
          | Load _ | Store _ -> d_mem
          | Alloc _ -> d_alloc (* alloc_cells is dynamic *)
          | Call _ -> d_call
          | Output _ | Input _ -> d_io
          | _ -> d_alu
        in
        bd.(d) <- bd.(d) + 1;
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
          | Func_addr (x, fn) -> CFuncaddr (slot_of x, index_of fn)
          | Call { cdst; callee; cargs } ->
            CCall
              {
                dst = Option.map slot_of cdst;
                callee =
                  (match callee with
                  | Direct fn -> CDirect (index_of fn)
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
            let bdelta = [| 0; 0; 0; 0; 0; 0 |] in
            let body = Array.of_list (List.map (cinstr bdelta) b.instrs) in
            let n = Array.length body and nphis = ref 0 in
            while !nphis < n && is_phi body.(!nphis) do
              incr nphis
            done;
            let call_free = bdelta.(d_call) = 0 in
            let cterm =
              match b.term.tkind with
              | Br (o, b1, b2) -> bdelta.(d_branch) <- 1; CTBr (rop o, b1, b2)
              | Jmp b1 -> CTJmp b1
              | Ret o -> bdelta.(d_call) <- bdelta.(d_call) + 1; CTRet (Option.map rop o)
            in
            { body; cterm; term_lbl = b.term.tlbl; term_pre = [||]; nphis = !nphis;
              nsteps = n - !nphis + 1; call_free; bdelta; sh_delta = [||] })
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
        { cfname = f.fname; nslots = !nslots; cparams; entry_acts = [||];
          entry_delta = [||]; cblocks; execs0 = !nexecs }
      in
      nexecs := !nexecs + 1 + Array.length cblocks;
      bfuncs := { bare; slot_vars } :: !bfuncs)
    p;
  let bmain = P.func_number p "main" in
  if bmain < 0 then error "program has no main";
  let undefined = Array.of_list (List.rev !undefined) in
  {
    prog = p;
    bfuncs = Array.of_list (List.rev !bfuncs);
    bfnames =
      Array.init (ndefined + Array.length undefined) (fun fi ->
          if fi < ndefined then (P.func_at p fi).fname else undefined.(fi - ndefined));
    bmain;
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
  let max_slots = ref 1 in
  (* The shadow counters charged since the last [deltas], lane k's at
     [sh_width * k] of [row]; [charged] once anything is. A program that
     charges nothing instruments nothing. *)
  let row = Array.make (sh_width * nlanes) 0 in
  let charged = ref false and has_shadow = ref false in
  let charge m d n =
    charged := true;
    let m = ref m and r = ref d in
    while !m <> 0 do
      if !m land 1 <> 0 then row.(!r) <- row.(!r) + n;
      m := !m lsr 1;
      r := !r + sh_width
    done
  in
  let deltas () =
    if not !charged then [||]
    else begin
      let d = Array.copy row in
      Array.fill row 0 (Array.length row) 0;
      charged := false;
      has_shadow := true;
      d
    end
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
  let funcs =
    Array.map
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
      (* [lbl] is the statement a check reports; entry checks carry -1. One
         execution's shadow counters go to the rows of the lanes in [m]. *)
      let cact lbl m (a : Item.action) : cact =
        match a with
        | Item.Set_var (x, rhs) ->
          charge m d_sh_reg 1;
          let crhs =
            match rhs with
            | Item.Rconst b -> CRconst b
            | Item.Rvar y -> charge m d_sh_reads 1; CRvar (slot_of y)
            | Item.Rconj ys ->
              charge m d_sh_reads (List.length ys);
              CRconj (Array.of_list (List.map slot_of ys))
            | Item.Rmem y -> charge m d_sh_mem 1; CRmem (slot_of y)
            | Item.Rglobal i -> charge m d_sh_reads 1; CRglobal i
            | Item.Rphi arms ->
              charge m d_sh_reads 1;
              CRphi (Array.of_list (List.map (fun (b, o) -> (b, sop o)) arms))
          in
          CSet_var (slot_of x, crhs)
        | Item.Set_mem (x, Item.Mop o) -> charge m d_sh_mem 1; CSet_mem (slot_of x, sop o)
        | Item.Set_mem (x, Item.Mconst b) ->
          charge m d_sh_mem 1;
          CSet_mem_const (slot_of x, b)
        | Item.Set_mem_object (x, b) ->
          charge m d_sh_obj 1;
          CSet_mem_object (slot_of x, b)
        | Item.Set_global (i, o) ->
          charge m d_sh_reg 1;
          charge m d_sh_reads (match o with Var _ -> 1 | Cst _ | Undef -> 0);
          CSet_global (i, sop o)
        | Item.Check o -> (
          charge m d_sh_check 1;
          match o with
          | Var v -> CCheck (Some (slot_of v), lbl)
          | Undef -> CCheck (None, lbl)
          | Cst _ -> CCheck (None, -2) (* never emitted; treated as pass *))
      in
      let actions w lbl =
        if w.len = 0 then [||]
        else
          take w { act = CSet_global (0, Sc true); lanes = 0 } (fun a m ->
              { act = cact lbl m a; lanes = m })
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
                take arms { sharms = [||]; sh_lanes = 0 } (fun a m ->
                    let a = match a with Item.Set_var (_, Item.Rphi a) -> a | _ -> [] in
                    charge m d_sh_reg 1;
                    charge m d_sh_reads 1;
                    { sharms = Array.of_list (List.map (fun (pb, o) -> (pb, sop o)) a); sh_lanes = m })
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
            let term_pre =
              if not (instrumented cb.term_lbl) then [||]
              else begin
                (* A terminator runs its items before it. *)
                weave cb.term_lbl;
                post.len <- 0;
                actions pre cb.term_lbl
              end
            in
            { cb with body; term_pre; sh_delta = deltas () })
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
      { f with nslots = !nslots; entry_acts; entry_delta = deltas (); cblocks })
    b.bfuncs
  in
  {
    funcs;
    fnames = b.bfnames;
    global_objid = b.bglobal_objid;
    globals = b.prog.globals;
    main = funcs.(b.bmain);
    nglobal_slots =
      Array.fold_left (fun n (p : Item.plan) -> max n (p.ret_slot + 1)) 1 plans;
    (* An un-instrumented run never reads or writes shadow registers. *)
    has_shadow = !has_shadow;
    max_slots = !max_slots;
    nlanes;
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

(* The frames of the active calls lie end to end in one set of register
   planes: a callee's frame starts where its caller's ends and returns into
   a register the caller names; a block's phi scratch lies past its frame. *)
type state = {
  prog : cprog;
  mutable objs : mobj array;
  mutable nobjs : int;
  sigma_g : int array;
  cnt : Counters.t;               (* base program counters, shared by lanes *)
  lcnt : Counters.t array;        (* shadow counters per lane *)
  execs : int array;              (* per function entry and block, see [execs0] *)
  det : (label, unit) Hashtbl.t array;  (* per lane *)
  gt : (label, unit) Hashtbl.t;
  mutable outputs_rev : int list;
  mutable steps : int;
  mutable input_state : int;
  limits : limits;
  mutable rk : Bytes.t;           (* register planes *)
  mutable ra : int array;
  mutable rb : int array;
  mutable rsh : int array;        (* lane masks; unused without shadow *)
}

let new_obj st ~cells ~init ~name : int =
  if st.nobjs >= st.limits.max_objects then
    exhausted "objects" st.limits.max_objects;
  let id = st.nobjs and n = max cells 1 in
  let ck = Bytes.make n (if init then int_def else int_undef) and cb = Array.make n 0 in
  let ca =
    if init then Array.make n 0 else Array.init n (fun off -> garbage ~objid:id ~off)
  in
  let o = { ck; ca; cb; shadow = Array.make n (-1); obj_name = name } in
  if st.nobjs >= Array.length st.objs then begin
    let objs = Array.make (max 64 (2 * Array.length st.objs)) o in
    Array.blit st.objs 0 objs 0 st.nobjs;
    st.objs <- objs
  end;
  st.objs.(st.nobjs) <- o;
  st.nobjs <- st.nobjs + 1;
  id

(* Process-wide dynamic-work totals (Obs.Metrics), published once per run;
   the per-outcome [Counters.t] stays the cost model's input. [interp.runs]
   and [interp.base_ops] count executions; [interp.shadow_ops] and
   [interp.detections] sum over lanes. *)
let m_runs = Obs.Metrics.counter "interp.runs"
let m_base_ops = Obs.Metrics.counter "interp.base_ops"
let m_shadow_ops = Obs.Metrics.counter "interp.shadow_ops"
let m_detections = Obs.Metrics.counter "interp.detections"

(* Registers [i] below [Bytes.length st.rk]: frames and scratch are made
   room for before use. *)
let[@inline] kind_at st i = Char.code (Bytes.unsafe_get st.rk i)
let[@inline] def_at st i = kind_at st i land k_def <> 0

let[@inline] set st i kind a b =
  Bytes.unsafe_set st.rk i (Char.unsafe_chr kind);
  Array.unsafe_set st.ra i a;
  Array.unsafe_set st.rb i b

let[@inline] def_bit def = if def then k_def else 0

(* The [as_int] and the definedness of an operand of the frame at [base]. *)
let[@inline] op_int st base = function
  | Rc n -> n
  | Rs s -> as_int (kind_at st (base + s)) st.ra.(base + s) st.rb.(base + s)
  | Ru -> 0xDEAD

let[@inline] op_def st base = function
  | Rc _ -> true
  | Rs s -> def_at st (base + s)
  | Ru -> false

(* Write an operand of the frame at [base] to index [j] of planes (k, a, b). *)
let[@inline] put_op st base o (k : Bytes.t) (a : int array) (b : int array) j =
  match o with
  | Rc n ->
    Bytes.unsafe_set k j int_def;
    Array.unsafe_set a j n
  | Rs s ->
    Bytes.unsafe_set k j (Bytes.unsafe_get st.rk (base + s));
    Array.unsafe_set a j (Array.unsafe_get st.ra (base + s));
    Array.unsafe_set b j (Array.unsafe_get st.rb (base + s))
  | Ru ->
    Bytes.unsafe_set k j int_undef;
    Array.unsafe_set a j 0xDEAD

(* Make room for registers below [top]. *)
let reserve st top =
  if top > Bytes.length st.rk then begin
    let n = max top (2 * Bytes.length st.rk) in
    let grow a = Array.append a (Array.make (n - Array.length a) 0) in
    st.rk <- Bytes.extend st.rk 0 (n - Bytes.length st.rk);
    st.ra <- grow st.ra;
    st.rb <- grow st.rb;
    st.rsh <- grow st.rsh
  end

(* A shadow for every lane at once: all ones is "defined" in every lane. *)
let[@inline] lanes_of_bool b = if b then -1 else 0

let[@inline] svalue st base (s : sop) : int =
  match s with Sc b -> lanes_of_bool b | Ss s -> Array.unsafe_get st.rsh (base + s)

(* [old] with the bits in mask [m] taken from [v]. *)
let[@inline] masked old v m = old lxor ((old lxor v) land m)

(* The object register [i] points into, at offset [st.rb.(i)]. *)
let deref st ~what i : mobj =
  if kind_at st i land 3 <> k_ptr then error "%s: not a pointer" what;
  let o = st.ra.(i) and off = st.rb.(i) in
  if o < 0 || o >= st.nobjs then error "%s: dangling pointer" what;
  if off < 0 || off >= Array.length st.objs.(o).ca then
    error "%s: out-of-bounds access to %s[%d]" what st.objs.(o).obj_name off;
  st.objs.(o)

(* First arm whose predecessor block is [pb]; -1 when absent. *)
let rec arm_index (arms : (int * 'a) array) (pb : int) (i : int) : int =
  if i >= Array.length arms then -1
  else if fst (Array.unsafe_get arms i) = pb then i
  else arm_index arms pb (i + 1)

let rec all_set st base (ys : int array) (i : int) (acc : int) : int =
  if i >= Array.length ys then acc
  else all_set st base ys (i + 1) (acc land st.rsh.(base + ys.(i)))

(* Every lane in [bad] records a detection at [lbl]. *)
let detect st bad lbl =
  let bad = ref bad and k = ref 0 in
  while !bad <> 0 do
    if !bad land 1 <> 0 then Hashtbl.replace st.det.(!k) lbl ();
    bad := !bad lsr 1;
    incr k
  done

(* An action in the frame at [base], entered from block [prev]. *)
let exec_action st base prev (a : caction) =
  let m = a.lanes and sregs = st.rsh in
  match a.act with
  | CSet_var (x, rhs) ->
    let v =
      match rhs with
      | CRconst b -> lanes_of_bool b
      | CRvar y -> sregs.(base + y)
      | CRconj ys -> all_set st base ys 0 (-1)
      | CRmem y -> (deref st ~what:"shadow load" (base + y)).shadow.(st.rb.(base + y))
      | CRglobal i -> st.sigma_g.(i)
      | CRphi arms ->
        let i = arm_index arms prev 0 in
        if i >= 0 then svalue st base (snd arms.(i)) else -1
    in
    sregs.(base + x) <- masked sregs.(base + x) v m
  | CSet_mem (x, s) ->
    let sh = (deref st ~what:"shadow store" (base + x)).shadow in
    sh.(st.rb.(base + x)) <- masked sh.(st.rb.(base + x)) (svalue st base s) m
  | CSet_mem_const (x, b) ->
    let sh = (deref st ~what:"shadow store" (base + x)).shadow in
    sh.(st.rb.(base + x)) <- masked sh.(st.rb.(base + x)) (lanes_of_bool b) m
  | CSet_mem_object (x, b) ->
    let sh = (deref st ~what:"shadow object init" (base + x)).shadow in
    let lanes = ref m and k = ref 0 in
    while !lanes <> 0 do
      if !lanes land 1 <> 0 then begin
        let c = st.lcnt.(!k) in
        c.sh_obj_cells <- c.sh_obj_cells + Array.length sh
      end;
      lanes := !lanes lsr 1;
      incr k
    done;
    let v = lanes_of_bool b in
    for i = 0 to Array.length sh - 1 do
      sh.(i) <- masked sh.(i) v m
    done
  | CSet_global (i, s) -> st.sigma_g.(i) <- masked st.sigma_g.(i) (svalue st base s) m
  | CCheck (slot, lbl) ->
    let ok = match slot with Some s -> sregs.(base + s) | None -> 0 in
    let bad = m land lnot ok in
    if bad <> 0 then detect st bad lbl

let exec_actions st base prev (acts : caction array) =
  for i = 0 to Array.length acts - 1 do
    exec_action st base prev (Array.unsafe_get acts i)
  done

(* Leading phis evaluate in parallel: every arm is read into the scratch
   past the frame at [base] before any phi is written. *)
let exec_phis st (f : cfunc) (b : cblock) base prev =
  let scr = base + f.nslots in
  reserve st (scr + b.nphis);
  for i = 0 to b.nphis - 1 do
    match b.body.(i).ckind with
    | CPhi { arms; sh; _ } ->
      let k = arm_index arms prev 0 in
      if k >= 0 then put_op st base (snd arms.(k)) st.rk st.ra st.rb (scr + i)
      else set st (scr + i) 0 0 0;
      (* Each entry's lanes are disjoint from the others'. *)
      let v = ref 0 in
      for j = 0 to Array.length sh - 1 do
        let k = arm_index sh.(j).sharms prev 0 in
        let s = if k >= 0 then svalue st base (snd sh.(j).sharms.(k)) else -1 in
        v := !v lor (s land sh.(j).sh_lanes)
      done;
      st.rsh.(scr + i) <- !v
    | _ -> assert false
  done;
  for i = 0 to b.nphis - 1 do
    let ci = b.body.(i) in
    match ci.ckind with
    | CPhi { dst; sh; _ } ->
      set st (base + dst) (kind_at st (scr + i)) st.ra.(scr + i) st.rb.(scr + i);
      for j = 0 to Array.length sh - 1 do
        st.rsh.(base + dst) <- masked st.rsh.(base + dst) st.rsh.(scr + i) sh.(j).sh_lanes
      done;
      (* Non-phi shadow items attached to the phi still run. *)
      exec_actions st base prev ci.pre;
      exec_actions st base prev ci.post
    | _ -> assert false
  done

(* A cleared frame for [f] at [base]: every register an int 0, defined, in
   every lane. *)
let push_frame st (f : cfunc) base ~depth =
  if depth > st.limits.max_depth then
    exhausted "call depth" st.limits.max_depth;
  reserve st (base + f.nslots + 1);
  Bytes.fill st.rk base f.nslots int_def;
  Array.fill st.ra base f.nslots 0;
  if st.prog.has_shadow then Array.fill st.rsh base f.nslots (-1)

(* Register [x] := register [y] plus [k]: a pointer's offset moves, any
   other value keeps its bits and becomes undefined. *)
let offset st x y k def =
  let t = kind_at st y in
  if t land 3 <> k_ptr then set st x (t land 3) st.ra.(y) st.rb.(y)
  else set st x (k_ptr lor (t land def_bit def)) st.ra.(y) (st.rb.(y) + k)

let step st =
  st.steps <- st.steps + 1;
  if st.steps > st.limits.max_steps then exhausted "steps" st.limits.max_steps

(* Run [f] in its frame at [base]; it returns its value in register [ret]. *)
let rec exec_func st (f : cfunc) base ret ~depth =
  st.execs.(f.execs0) <- st.execs.(f.execs0) + 1;
  exec_actions st base 0 f.entry_acts;
  exec_block st f base ret 0 0 ~depth

(* Block [bid] of the frame at [base], entered from block [prev]. It counts
   one execution; [settle] charges its counters at the end. A call-free
   block whose steps fit in the budget takes them all on entry: it cannot
   hit the limit, so no error can come first where it would. *)
and exec_block st (f : cfunc) base ret prev bid ~depth =
  let b = f.cblocks.(bid) in
  st.execs.(f.execs0 + 1 + bid) <- st.execs.(f.execs0 + 1 + bid) + 1;
  if b.nphis > 0 then exec_phis st f b base prev;
  let stepwise = not (b.call_free && st.steps + b.nsteps <= st.limits.max_steps) in
  if not stepwise then st.steps <- st.steps + b.nsteps;
  for idx = b.nphis to Array.length b.body - 1 do
    let i = b.body.(idx) in
    if stepwise then step st;
    if Array.length i.pre > 0 then exec_actions st base prev i.pre;
    (match i.ckind with
    | CConst (x, n) -> set st (base + x) k_def n 0
    | CCopy (x, o) -> put_op st base o st.rk st.ra st.rb (base + x)
    | CUnop (x, u, o) ->
      set st (base + x) (def_bit (op_def st base o)) (eval_unop u (op_int st base o)) 0
    | CBinop (x, bop, o1, o2) ->
      let r =
        match (bop, o1, o2) with
        | (Eq | Ne), Rs p, Rs q
          when kind_at st (base + p) land 3 = k_ptr
               && kind_at st (base + q) land 3 = k_ptr ->
          let p = base + p and q = base + q in
          if (st.ra.(p) = st.ra.(q) && st.rb.(p) = st.rb.(q)) = (bop = Eq) then 1 else 0
        | _ -> eval_binop bop (op_int st base o1) (op_int st base o2)
      in
      set st (base + x) (def_bit (op_def st base o1 && op_def st base o2)) r 0
    | CAlloc { dst; init; size; name } ->
      let cells =
        match size with
        | CFields n -> n
        | CArray o ->
          if not (op_def st base o) then error "allocation with undefined size";
          max 0 (min (op_int st base o) 10_000_000)
      in
      st.cnt.alloc_cells <- st.cnt.alloc_cells + cells;
      set st (base + dst) (k_ptr lor k_def) (new_obj st ~cells ~init ~name) 0
    | CLoad (x, y) ->
      if not (def_at st (base + y)) then Hashtbl.replace st.gt i.clbl ();
      let ob = deref st ~what:"load" (base + y) and off = st.rb.(base + y) in
      Bytes.unsafe_set st.rk (base + x) (Bytes.unsafe_get ob.ck off);
      st.ra.(base + x) <- ob.ca.(off);
      st.rb.(base + x) <- ob.cb.(off)
    | CStore (x, o) ->
      if not (def_at st (base + x)) then Hashtbl.replace st.gt i.clbl ();
      let ob = deref st ~what:"store" (base + x) in
      put_op st base o ob.ck ob.ca ob.cb st.rb.(base + x)
    | CField (x, y, k) -> offset st (base + x) (base + y) k true
    | CIndex (x, y, o) ->
      offset st (base + x) (base + y) (op_int st base o) (op_def st base o)
    | CGlobaladdr (x, objid) -> set st (base + x) (k_ptr lor k_def) objid 0
    | CFuncaddr (x, fi) -> set st (base + x) (k_fun lor k_def) fi 0
    | CCall { dst; callee; args } ->
      let fi =
        match callee with
        | CDirect fi -> fi
        | CIndirect s when kind_at st (base + s) land 3 = k_fun -> st.ra.(base + s)
        | CIndirect _ -> error "indirect call through non-function"
      in
      if fi >= Array.length st.prog.funcs then
        error "call to unknown function %s" st.prog.fnames.(fi);
      let g = st.prog.funcs.(fi) and gbase = base + f.nslots in
      push_frame st g gbase ~depth:(depth + 1);
      for k = 0 to min (Array.length g.cparams) (Array.length args) - 1 do
        put_op st base args.(k) st.rk st.ra st.rb (gbase + g.cparams.(k))
      done;
      let ret = match dst with Some x -> base + x | None -> gbase + g.nslots in
      exec_func st g gbase ret ~depth:(depth + 1)
    | CPhi _ -> error "phi in block body (not at head)"
    | COutput o -> st.outputs_rev <- op_int st base o :: st.outputs_rev
    | CInput x ->
      st.input_state <- (st.input_state * 1103515245) + 12345;
      set st (base + x) k_def ((st.input_state lsr 16) land 0x7fff) 0);
    if Array.length i.post > 0 then exec_actions st base prev i.post
  done;
  if Array.length b.term_pre > 0 then exec_actions st base prev b.term_pre;
  (* Terminators count as steps too, or an empty infinite loop would
     never hit the step limit. *)
  if stepwise then step st;
  match b.cterm with
  | CTBr (o, b1, b2) ->
    if not (op_def st base o) then Hashtbl.replace st.gt b.term_lbl ();
    exec_block st f base ret bid (if op_int st base o <> 0 then b1 else b2) ~depth
  | CTJmp b1 -> exec_block st f base ret bid b1 ~depth
  | CTRet (Some o) -> put_op st base o st.rk st.ra st.rb ret
  | CTRet None -> set st ret 0 0 0

(* The counters: each block's deltas times its execution count. *)
let settle st =
  let shadow e (d : int array) =
    for k = 0 to (Array.length d / sh_width) - 1 do
      let o = sh_width * k and c = st.lcnt.(k) in
      c.sh_reg <- c.sh_reg + (e * d.(o + d_sh_reg));
      c.sh_reg_reads <- c.sh_reg_reads + (e * d.(o + d_sh_reads));
      c.sh_mem <- c.sh_mem + (e * d.(o + d_sh_mem));
      c.sh_obj <- c.sh_obj + (e * d.(o + d_sh_obj));
      c.sh_check <- c.sh_check + (e * d.(o + d_sh_check))
    done
  in
  let c = st.cnt in
  Array.iter
    (fun (f : cfunc) ->
      shadow st.execs.(f.execs0) f.entry_delta;
      Array.iteri
        (fun bid (b : cblock) ->
          let e = st.execs.(f.execs0 + 1 + bid) and d = b.bdelta in
          c.alu <- c.alu + (e * d.(d_alu));
          c.mem <- c.mem + (e * d.(d_mem));
          c.branch <- c.branch + (e * d.(d_branch));
          c.call <- c.call + (e * d.(d_call));
          c.alloc <- c.alloc + (e * d.(d_alloc));
          c.io <- c.io + (e * d.(d_io));
          shadow e b.sh_delta)
        f.cblocks)
    st.prog.funcs

let run_lanes ?(limits = default_limits) (cp : cprog) : lane_outcomes =
  let none = { ck = Bytes.empty; ca = [||]; cb = [||]; shadow = [||]; obj_name = "!" } in
  let nregs = 2 * (cp.max_slots + 1) in
  let nexecs = Array.fold_left (fun n f -> n + 1 + Array.length f.cblocks) 0 cp.funcs in
  let st =
    {
      prog = cp;
      objs = Array.make 64 none;
      nobjs = 0;
      sigma_g = Array.make (max 1 cp.nglobal_slots) (-1);
      cnt = Counters.create ();
      lcnt = Array.init cp.nlanes (fun _ -> Counters.create ());
      execs = Array.make nexecs 0;
      det = Array.init cp.nlanes (fun _ -> Hashtbl.create 16);
      gt = Hashtbl.create 16;
      outputs_rev = [];
      steps = 0;
      input_state = 0x9e3779b9;
      limits;
      rk = Bytes.create nregs;
      ra = Array.make nregs 0;
      rb = Array.make nregs 0;
      rsh = Array.make nregs 0;
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
      List.iteri (fun i n -> if i < cells then st.objs.(id).ca.(i) <- n) g.ginit;
      assert (id = Hashtbl.find cp.global_objid g.gname))
    cp.globals;
  (* main returns into the register past its frame. *)
  let ret = cp.main.nslots in
  let main () =
    push_frame st cp.main 0 ~depth:0;
    exec_func st cp.main 0 ret ~depth:0
  in
  if Obs.Trace.enabled () then
    Obs.Trace.with_span ~cat:"interp"
      ~args:[ ("lanes", Obs.Trace.Int cp.nlanes) ]
      "interp.run" main
  else main ();
  settle st;
  let native =
    {
      outputs = List.rev st.outputs_rev;
      exit_value = as_int (kind_at st ret) st.ra.(ret) st.rb.(ret);
      counters = st.cnt;
      detections = Hashtbl.create 1;
      gt_uses = st.gt;
      steps = st.steps;
    }
  in
  (* Lane k's counters: the shared base counts plus lane k's own. *)
  let lane k =
    let c = Counters.copy st.cnt in
    Counters.add_shadow c st.lcnt.(k);
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
