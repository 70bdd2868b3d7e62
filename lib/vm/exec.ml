(* The flat-dispatch execution loop.

   Machine layout: one pair of growable parallel register stacks — a tag
   byte plane (bits 0-1: 0 int / 1 pointer / 2 function; bit 2: the
   ground-truth def bit) plus int arrays (a, b) for payloads, and a raw
   [Bytes] plane for the instrumented shadow state — indexed [frame base +
   slot]; an explicit frame stack (no OCaml recursion); heap objects as
   unboxed parallel cell arrays with the same merged tag/def plane and a
   shadow plane; sigma_g as [Bytes].

   The dispatch loop is a self-tail-recursive function whose hot state
   (code array, register planes, pc, frame base, predecessor block, step
   count, frame depth) travels as arguments, which the OCaml native
   compiler keeps in registers across the self-calls — the closest OCaml
   gets to threaded dispatch. Rarely-touched state (heap, frame stack,
   counters, label sets) lives in a record the loop closes over.

   Parity with Runtime.Interp is exact by construction:
   - [steps] is incremented and bounds-checked per step-bit opcode, i.e.
     exactly where the interpreter increments, so Resource_exhausted /
     Runtime_error ordering matches;
   - cost-model counters are reconstructed from per-block execution counts
     times the static deltas computed at lowering (plus the two dynamic
     cell accumulators), which equals the interpreter's per-instruction
     counting on every successful run;
   - garbage cells, input PRNG, pointer packing and all error messages
     reuse the interpreter's exact formulas. *)

module I = Runtime.Interp
module B = Bytecode
module Counters = Runtime.Counters

let error fmt = Fmt.kstr (fun s -> raise (I.Runtime_error s)) fmt

let exhausted what limit = raise (I.Resource_exhausted { what; limit })

(* Tag bytes: kind lor (def lsl 2). *)
let t_int_u = '\000'
let t_int_d = '\004'
let t_ptr_d = '\005'
let t_fun_d = '\006'

type vobj = {
  otag : Bytes.t;        (* merged kind/def plane *)
  ova : int array;
  ovb : int array;
  osh : Bytes.t;
  oname : string;
  ocells : int;          (* padded cell count: max cells 1 *)
}

type rt = {
  prog : B.prog;
  limits : I.limits;
  (* heap *)
  mutable objs : vobj array;
  mutable nobjs : int;
  sigma_g : Bytes.t;
  (* register stacks (the loop carries them as arguments; these fields are
     the authoritative reference across growth) *)
  mutable rtag : Bytes.t;
  mutable ra : int array;
  mutable rb : int array;
  mutable rsh : Bytes.t;
  (* frame stack *)
  mutable fs_func : int array;
  mutable fs_pc : int array;
  mutable fs_dst : int array;
  mutable fs_base : int array;
  mutable fs_prev : int array;
  mutable sp : int;                  (* top of the register stacks *)
  mutable cur : int;                 (* current function index *)
  (* observation *)
  cnt : Counters.t;                  (* only the dynamic cell accumulators *)
  bexecs : int array;                (* per-global-block execution counts *)
  fexecs : int array;                (* per-function invocation counts *)
  det : Bytes.t;                     (* label bitmaps, indexed lbl + 2 *)
  gt : Bytes.t;
  mutable outputs_rev : int list;
  mutable input_state : int;
}

let dummy_obj =
  {
    otag = Bytes.empty;
    ova = [||];
    ovb = [||];
    osh = Bytes.empty;
    oname = "!";
    ocells = 0;
  }

let new_obj rt ~cells ~init ~name : int =
  if rt.nobjs >= rt.limits.max_objects then
    exhausted "objects" rt.limits.max_objects;
  let id = rt.nobjs in
  let n = max cells 1 in
  let ova =
    if init then Array.make n 0
    else
      Array.init n (fun off ->
          let h = (id * 2654435761) lxor (off * 40503) in
          (h lxor (h lsr 16)) land 0xffff)
  in
  let o =
    {
      otag = Bytes.make n (if init then t_int_d else t_int_u);
      ova;
      ovb = Array.make n 0;
      osh = Bytes.make n '\001';
      oname = name;
      ocells = n;
    }
  in
  if rt.nobjs >= Array.length rt.objs then begin
    let objs = Array.make (max 64 (2 * Array.length rt.objs)) dummy_obj in
    Array.blit rt.objs 0 objs 0 rt.nobjs;
    rt.objs <- objs
  end;
  rt.objs.(rt.nobjs) <- o;
  rt.nobjs <- rt.nobjs + 1;
  id

let ensure_regs rt need =
  if need > Array.length rt.ra then begin
    let cap = max need (2 * Array.length rt.ra) in
    let grow_b old =
      let nb = Bytes.make cap '\000' in
      Bytes.blit old 0 nb 0 (Bytes.length old);
      nb
    in
    let grow_a old =
      let na = Array.make cap 0 in
      Array.blit old 0 na 0 (Array.length old);
      na
    in
    rt.rtag <- grow_b rt.rtag;
    rt.ra <- grow_a rt.ra;
    rt.rb <- grow_a rt.rb;
    rt.rsh <- grow_b rt.rsh
  end

let ensure_frames rt need =
  if need > Array.length rt.fs_func then begin
    let cap = max need (2 * Array.length rt.fs_func) in
    let grow old =
      let na = Array.make cap 0 in
      Array.blit old 0 na 0 (Array.length old);
      na
    in
    rt.fs_func <- grow rt.fs_func;
    rt.fs_pc <- grow rt.fs_pc;
    rt.fs_dst <- grow rt.fs_dst;
    rt.fs_base <- grow rt.fs_base;
    rt.fs_prev <- grow rt.fs_prev
  end

(* [as_int] of a general operand (kind 3 reads as 0). *)
let op_int rtag ra rb base ok ov =
  if ok = 1 then begin
    let i = base + ov in
    let t = Char.code (Bytes.unsafe_get rtag i) land 3 in
    if t = 0 then Array.unsafe_get ra i
    else if t = 1 then
      (Array.unsafe_get ra i lsl 20) lor (Array.unsafe_get rb i land 0xfffff)
    else 1
  end
  else if ok = 0 then ov
  else if ok = 2 then 0xDEAD
  else 0

let op_def rtag base ok ov =
  if ok = 1 then Char.code (Bytes.unsafe_get rtag (base + ov)) land 4 <> 0
  else ok = 0

let copy_slot rtag ra rb src dst =
  Bytes.unsafe_set rtag dst (Bytes.unsafe_get rtag src);
  Array.unsafe_set ra dst (Array.unsafe_get ra src);
  Array.unsafe_set rb dst (Array.unsafe_get rb src)

let set_int rtag ra dst n def =
  Bytes.unsafe_set rtag dst (if def then t_int_d else t_int_u);
  Array.unsafe_set ra dst n

let set_ptr rtag ra rb dst o off def =
  Bytes.unsafe_set rtag dst (if def then t_ptr_d else '\001');
  Array.unsafe_set ra dst o;
  Array.unsafe_set rb dst off

(* Copy any operand into an absolute register slot. *)
let copy_op rtag ra rb base ok ov dst =
  if ok = 1 then copy_slot rtag ra rb (base + ov) dst
  else if ok = 0 then set_int rtag ra dst ov true
  else if ok = 2 then set_int rtag ra dst 0xDEAD false
  else set_int rtag ra dst 0 false

(* Dereference the pointer in absolute slot [i]; returns the object (the
   offset is re-read from [rb.(i)] by the caller). Checks and messages
   mirror the interpreter's [deref]. *)
let deref_obj rt rtag ra rb what i : vobj =
  if Char.code (Bytes.unsafe_get rtag i) land 3 <> 1 then
    error "%s: not a pointer" what;
  let oid = Array.unsafe_get ra i in
  if oid < 0 || oid >= rt.nobjs then error "%s: dangling pointer" what;
  let ob = Array.unsafe_get rt.objs oid in
  let off = Array.unsafe_get rb i in
  if off < 0 || off >= ob.ocells then
    error "%s: out-of-bounds access to %s[%d]" what ob.oname off;
  ob

let exec_binop bop a b =
  match bop with
  | 0 -> a + b
  | 1 -> a - b
  | 2 -> a * b
  | 3 -> if b = 0 then 0 else a / b
  | 4 -> if b = 0 then 0 else a mod b
  | 5 -> a land b
  | 6 -> a lor b
  | 7 -> a lxor b
  | 8 ->
    let s = b land 63 in
    a lsl (if s > 62 then 62 else s)
  | 9 ->
    let s = b land 63 in
    a asr (if s > 62 then 62 else s)
  | 10 -> if a < b then 1 else 0
  | 11 -> if a <= b then 1 else 0
  | 12 -> if a > b then 1 else 0
  | 13 -> if a >= b then 1 else 0
  | 14 -> if a = b then 1 else 0
  | _ -> if a <> b then 1 else 0

let sval rsh base sk sv =
  if sk = 1 then Bytes.unsafe_get rsh (base + sv) <> '\000' else sv <> 0

let labels_of_bitmap (bm : Bytes.t) : (Ir.Types.label, unit) Hashtbl.t =
  let h = Hashtbl.create 16 in
  Bytes.iteri (fun i c -> if c <> '\000' then Hashtbl.replace h (i - 2) ()) bm;
  h

(* ------------------------------------------------------------------ *)

let run ?(limits = I.default_limits) (bp : B.prog) : I.outcome =
  let rt =
    {
      prog = bp;
      limits;
      objs = Array.make 64 dummy_obj;
      nobjs = 0;
      sigma_g = Bytes.make (max 1 bp.nglobal_slots) '\001';
      rtag = Bytes.make 1024 '\000';
      ra = Array.make 1024 0;
      rb = Array.make 1024 0;
      rsh = Bytes.make 1024 '\000';
      fs_func = Array.make 64 0;
      fs_pc = Array.make 64 0;
      fs_dst = Array.make 64 0;
      fs_base = Array.make 64 0;
      fs_prev = Array.make 64 0;
      sp = 0;
      cur = bp.main;
      cnt = Counters.create ();
      bexecs = Array.make (max 1 bp.nblocks) 0;
      fexecs = Array.make (Array.length bp.funcs) 0;
      det = Bytes.make (bp.nlabels + 2) '\000';
      gt = Bytes.make (bp.nlabels + 2) '\000';
      outputs_rev = [];
      input_state = 0x9e3779b9;
    }
  in
  (* Globals: C default-initialization (defined), leading init values. *)
  List.iter
    (fun (g : Ir.Types.global) ->
      let cells =
        match g.gsize with
        | Ir.Types.Fields n -> n
        | Ir.Types.Array_of (Ir.Types.Cst n) -> n
        | Ir.Types.Array_of _ -> error "global %s has dynamic size" g.gname
      in
      let id = new_obj rt ~cells ~init:true ~name:g.gname in
      List.iteri
        (fun i n -> if i < cells then rt.objs.(id).ova.(i) <- n)
        g.ginit;
      assert (id = Hashtbl.find bp.global_objid g.gname))
    bp.globals;
  let max_steps = limits.max_steps in
  let max_depth = limits.max_depth in
  let has_sh = bp.has_shadow in
  let funcs = bp.funcs in
  let names = bp.names in
  let name2func = bp.name2func in
  let bexecs = rt.bexecs in
  let main = funcs.(bp.main) in
  ensure_regs rt main.nslots;
  Bytes.fill rt.rtag 0 main.nslots t_int_d;
  Bytes.fill rt.rsh 0 main.nslots '\001';
  rt.sp <- main.nslots;
  rt.fexecs.(bp.main) <- 1;
  (* The dispatch loop. Every hot mutable travels as an argument; handlers
     end with a self-tail-call. Returns (exit_value, steps). *)
  let rec loop c rtag ra rb rsh pc base prev steps fp =
    let op = Array.unsafe_get c pc in
    let steps =
      if op land 256 (* B.step_bit *) <> 0 then begin
        let s = steps + 1 in
        if s > max_steps then exhausted "steps" max_steps;
        s
      end
      else steps
    in
    match op land 0xff with
    | 1 (* CONST dst n *) ->
      set_int rtag ra (base + Array.unsafe_get c (pc + 1))
        (Array.unsafe_get c (pc + 2)) true;
      loop c rtag ra rb rsh (pc + 3) base prev steps fp
    | 2 (* COPY dst ok ov *) ->
      copy_op rtag ra rb base (Array.unsafe_get c (pc + 2))
        (Array.unsafe_get c (pc + 3))
        (base + Array.unsafe_get c (pc + 1));
      loop c rtag ra rb rsh (pc + 4) base prev steps fp
    | 3 (* UNOP dst u ok ov *) ->
      let ok = Array.unsafe_get c (pc + 3) and ov = Array.unsafe_get c (pc + 4) in
      let n = op_int rtag ra rb base ok ov in
      let r =
        match Array.unsafe_get c (pc + 2) with
        | 0 -> -n
        | 1 -> lnot n
        | _ -> if n = 0 then 1 else 0
      in
      set_int rtag ra (base + Array.unsafe_get c (pc + 1)) r
        (op_def rtag base ok ov);
      loop c rtag ra rb rsh (pc + 5) base prev steps fp
    | 4 (* BINOP dst bop ok1 ov1 ok2 ov2 *) ->
      let bop = Array.unsafe_get c (pc + 2) in
      let ok1 = Array.unsafe_get c (pc + 3) and ov1 = Array.unsafe_get c (pc + 4) in
      let ok2 = Array.unsafe_get c (pc + 5) and ov2 = Array.unsafe_get c (pc + 6) in
      let i1 = base + ov1 and i2 = base + ov2 in
      let r =
        (* Eq/Ne on two pointers compare object and offset, like the
           interpreter; everything else works on [as_int] values *)
        if
          bop >= 14 && ok1 = 1 && ok2 = 1
          && Char.code (Bytes.unsafe_get rtag i1) land 3 = 1
          && Char.code (Bytes.unsafe_get rtag i2) land 3 = 1
        then begin
          let same =
            Array.unsafe_get ra i1 = Array.unsafe_get ra i2
            && Array.unsafe_get rb i1 = Array.unsafe_get rb i2
          in
          if same = (bop = 14) then 1 else 0
        end
        else
          exec_binop bop
            (op_int rtag ra rb base ok1 ov1)
            (op_int rtag ra rb base ok2 ov2)
      in
      set_int rtag ra (base + Array.unsafe_get c (pc + 1)) r
        (op_def rtag base ok1 ov1 && op_def rtag base ok2 ov2);
      loop c rtag ra rb rsh (pc + 7) base prev steps fp
    | 5 (* ALLOCF dst ncells init nameidx *) ->
      let cells = Array.unsafe_get c (pc + 2) in
      rt.cnt.alloc_cells <- rt.cnt.alloc_cells + cells;
      let id =
        new_obj rt ~cells
          ~init:(Array.unsafe_get c (pc + 3) <> 0)
          ~name:names.(Array.unsafe_get c (pc + 4))
      in
      set_ptr rtag ra rb (base + Array.unsafe_get c (pc + 1)) id 0 true;
      loop c rtag ra rb rsh (pc + 5) base prev steps fp
    | 6 (* ALLOCA dst ok ov init nameidx *) ->
      let ok = Array.unsafe_get c (pc + 2) and ov = Array.unsafe_get c (pc + 3) in
      if not (op_def rtag base ok ov) then
        error "allocation with undefined size";
      let cells = max 0 (min (op_int rtag ra rb base ok ov) 10_000_000) in
      rt.cnt.alloc_cells <- rt.cnt.alloc_cells + cells;
      let id =
        new_obj rt ~cells
          ~init:(Array.unsafe_get c (pc + 4) <> 0)
          ~name:names.(Array.unsafe_get c (pc + 5))
      in
      set_ptr rtag ra rb (base + Array.unsafe_get c (pc + 1)) id 0 true;
      loop c rtag ra rb rsh (pc + 6) base prev steps fp
    | 7 (* LOAD dst psrc lbl *) ->
      let i = base + Array.unsafe_get c (pc + 2) in
      if Char.code (Bytes.unsafe_get rtag i) land 4 = 0 then
        Bytes.unsafe_set rt.gt (Array.unsafe_get c (pc + 3) + 2) '\001';
      let ob = deref_obj rt rtag ra rb "load" i in
      let off = Array.unsafe_get rb i in
      let dst = base + Array.unsafe_get c (pc + 1) in
      Bytes.unsafe_set rtag dst (Bytes.unsafe_get ob.otag off);
      Array.unsafe_set ra dst (Array.unsafe_get ob.ova off);
      Array.unsafe_set rb dst (Array.unsafe_get ob.ovb off);
      loop c rtag ra rb rsh (pc + 4) base prev steps fp
    | 8 (* STORE pdst ok ov lbl *) ->
      let i = base + Array.unsafe_get c (pc + 1) in
      if Char.code (Bytes.unsafe_get rtag i) land 4 = 0 then
        Bytes.unsafe_set rt.gt (Array.unsafe_get c (pc + 4) + 2) '\001';
      let ob = deref_obj rt rtag ra rb "store" i in
      let off = Array.unsafe_get rb i in
      let ok = Array.unsafe_get c (pc + 2) and ov = Array.unsafe_get c (pc + 3) in
      if ok = 1 then begin
        let s = base + ov in
        Bytes.unsafe_set ob.otag off (Bytes.unsafe_get rtag s);
        Array.unsafe_set ob.ova off (Array.unsafe_get ra s);
        Array.unsafe_set ob.ovb off (Array.unsafe_get rb s)
      end
      else begin
        Bytes.unsafe_set ob.otag off (if ok = 0 then t_int_d else t_int_u);
        Array.unsafe_set ob.ova off (if ok = 0 then ov else 0xDEAD)
      end;
      loop c rtag ra rb rsh (pc + 5) base prev steps fp
    | 9 (* FIELD dst src k *) ->
      let i = base + Array.unsafe_get c (pc + 2) in
      let dst = base + Array.unsafe_get c (pc + 1) in
      let t = Char.code (Bytes.unsafe_get rtag i) in
      if t land 3 = 1 then
        set_ptr rtag ra rb dst (Array.unsafe_get ra i)
          (Array.unsafe_get rb i + Array.unsafe_get c (pc + 3))
          (t land 4 <> 0)
      else begin
        copy_slot rtag ra rb i dst;
        Bytes.unsafe_set rtag dst (Char.unsafe_chr (t land 3))
      end;
      loop c rtag ra rb rsh (pc + 4) base prev steps fp
    | 10 (* INDEX dst src ok ov *) ->
      let i = base + Array.unsafe_get c (pc + 2) in
      let dst = base + Array.unsafe_get c (pc + 1) in
      let ok = Array.unsafe_get c (pc + 3) and ov = Array.unsafe_get c (pc + 4) in
      let t = Char.code (Bytes.unsafe_get rtag i) in
      if t land 3 = 1 then
        set_ptr rtag ra rb dst (Array.unsafe_get ra i)
          (Array.unsafe_get rb i + op_int rtag ra rb base ok ov)
          (t land 4 <> 0 && op_def rtag base ok ov)
      else begin
        copy_slot rtag ra rb i dst;
        Bytes.unsafe_set rtag dst (Char.unsafe_chr (t land 3))
      end;
      loop c rtag ra rb rsh (pc + 5) base prev steps fp
    | 11 (* GLOBALADDR dst objid *) ->
      set_ptr rtag ra rb (base + Array.unsafe_get c (pc + 1))
        (Array.unsafe_get c (pc + 2)) 0 true;
      loop c rtag ra rb rsh (pc + 3) base prev steps fp
    | 12 (* FUNCADDR dst nameidx *) ->
      let dst = base + Array.unsafe_get c (pc + 1) in
      Bytes.unsafe_set rtag dst t_fun_d;
      Array.unsafe_set ra dst (Array.unsafe_get c (pc + 2));
      loop c rtag ra rb rsh (pc + 3) base prev steps fp
    | 13 | 14 (* CALL / CALLIND dst target nargs (ok ov)* *) ->
      let dst = Array.unsafe_get c (pc + 1) in
      let target = Array.unsafe_get c (pc + 2) in
      let nargs = Array.unsafe_get c (pc + 3) in
      let fi =
        if op land 0xff = 13 then begin
          if target >= 0 then target
          else error "call to unknown function %s" names.(-1 - target)
        end
        else begin
          let i = base + target in
          if Char.code (Bytes.unsafe_get rtag i) land 3 = 2 then begin
            let ni = Array.unsafe_get ra i in
            let fi = name2func.(ni) in
            if fi < 0 then error "call to unknown function %s" names.(ni)
            else fi
          end
          else error "indirect call through non-function"
        end
      in
      if fp + 1 > max_depth then exhausted "call depth" max_depth;
      let callee = funcs.(fi) in
      let nb = rt.sp in
      ensure_regs rt (nb + callee.nslots);
      let rtag' = rt.rtag and ra' = rt.ra and rb' = rt.rb and rsh' = rt.rsh in
      Bytes.fill rtag' nb callee.nslots t_int_d;
      Array.fill ra' nb callee.nslots 0;
      if has_sh then Bytes.fill rsh' nb callee.nslots '\001';
      let nparams = Array.length callee.params in
      for i = 0 to nargs - 1 do
        if i < nparams then
          copy_op rtag' ra' rb' base
            (Array.unsafe_get c (pc + 4 + (2 * i)))
            (Array.unsafe_get c (pc + 5 + (2 * i)))
            (nb + Array.unsafe_get callee.params i)
      done;
      ensure_frames rt (fp + 1);
      rt.fs_func.(fp) <- rt.cur;
      rt.fs_pc.(fp) <- pc + 4 + (2 * nargs);
      rt.fs_dst.(fp) <- dst;
      rt.fs_base.(fp) <- base;
      rt.fs_prev.(fp) <- prev;
      rt.fexecs.(fi) <- rt.fexecs.(fi) + 1;
      rt.cur <- fi;
      rt.sp <- nb + callee.nslots;
      loop callee.code rtag' ra' rb' rsh' 0 nb 0 steps (fp + 1)
    | 15 (* OUTPUT ok ov *) ->
      rt.outputs_rev <-
        op_int rtag ra rb base (Array.unsafe_get c (pc + 1))
          (Array.unsafe_get c (pc + 2))
        :: rt.outputs_rev;
      loop c rtag ra rb rsh (pc + 3) base prev steps fp
    | 16 (* INPUT dst *) ->
      rt.input_state <- (rt.input_state * 1103515245) + 12345;
      set_int rtag ra (base + Array.unsafe_get c (pc + 1))
        ((rt.input_state lsr 16) land 0x7fff)
        true;
      loop c rtag ra rb rsh (pc + 2) base prev steps fp
    | 17 (* BR ok ov lbl srcbid gt pt ge pe *) ->
      let ok = Array.unsafe_get c (pc + 1) and ov = Array.unsafe_get c (pc + 2) in
      if not (op_def rtag base ok ov) then
        Bytes.unsafe_set rt.gt (Array.unsafe_get c (pc + 3) + 2) '\001';
      let o = if op_int rtag ra rb base ok ov <> 0 then pc + 5 else pc + 7 in
      let g = Array.unsafe_get c o in
      Array.unsafe_set bexecs g (Array.unsafe_get bexecs g + 1);
      loop c rtag ra rb rsh
        (Array.unsafe_get c (o + 1))
        base
        (Array.unsafe_get c (pc + 4))
        steps fp
    | 18 (* JMP srcbid gidx pc *) ->
      let g = Array.unsafe_get c (pc + 2) in
      Array.unsafe_set bexecs g (Array.unsafe_get bexecs g + 1);
      loop c rtag ra rb rsh
        (Array.unsafe_get c (pc + 3))
        base
        (Array.unsafe_get c (pc + 1))
        steps fp
    | 19 (* RET ok ov *) ->
      let ok = Array.unsafe_get c (pc + 1) and ov = Array.unsafe_get c (pc + 2) in
      if fp = 0 then (op_int rtag ra rb base ok ov, steps)
      else begin
        let f = fp - 1 in
        let rdst = rt.fs_dst.(f) in
        let cbase = rt.fs_base.(f) in
        if rdst >= 0 then copy_op rtag ra rb base ok ov (cbase + rdst);
        rt.sp <- base;
        let cur = rt.fs_func.(f) in
        rt.cur <- cur;
        loop funcs.(cur).code rtag ra rb rsh
          rt.fs_pc.(f) cbase rt.fs_prev.(f) steps f
      end
    | 20 (* BAD_PHI *) -> error "phi in block body (not at head)"
    | 21 (* GOTO pc *) ->
      loop c rtag ra rb rsh (Array.unsafe_get c (pc + 1)) base prev steps fp
    | 22 (* BLOCK gidx *) ->
      let g = Array.unsafe_get c (pc + 1) in
      Array.unsafe_set bexecs g (Array.unsafe_get bexecs g + 1);
      loop c rtag ra rb rsh (pc + 2) base prev steps fp
    | 23 (* SH_MOV dst sk sv *) ->
      let sk = Array.unsafe_get c (pc + 2) and sv = Array.unsafe_get c (pc + 3) in
      Bytes.unsafe_set rsh (base + Array.unsafe_get c (pc + 1))
        (if sk = 1 then Bytes.unsafe_get rsh (base + sv)
         else if sv <> 0 then '\001'
         else '\000');
      loop c rtag ra rb rsh (pc + 4) base prev steps fp
    | 24 (* SH_CONJ dst n s1..sn *) ->
      let n = Array.unsafe_get c (pc + 2) in
      let all = ref true in
      for i = 0 to n - 1 do
        if Bytes.unsafe_get rsh (base + Array.unsafe_get c (pc + 3 + i)) = '\000'
        then all := false
      done;
      Bytes.unsafe_set rsh (base + Array.unsafe_get c (pc + 1))
        (if !all then '\001' else '\000');
      loop c rtag ra rb rsh (pc + 3 + n) base prev steps fp
    | 25 (* SH_MEM_RD dst pslot *) ->
      let i = base + Array.unsafe_get c (pc + 2) in
      let ob = deref_obj rt rtag ra rb "shadow load" i in
      Bytes.unsafe_set rsh (base + Array.unsafe_get c (pc + 1))
        (Bytes.unsafe_get ob.osh (Array.unsafe_get rb i));
      loop c rtag ra rb rsh (pc + 3) base prev steps fp
    | 26 (* SH_GLOBAL_RD dst gidx *) ->
      Bytes.unsafe_set rsh (base + Array.unsafe_get c (pc + 1))
        (Bytes.unsafe_get rt.sigma_g (Array.unsafe_get c (pc + 2)));
      loop c rtag ra rb rsh (pc + 3) base prev steps fp
    | 27 (* SH_PHI dst narms (pb sk sv)* *) ->
      let narms = Array.unsafe_get c (pc + 2) in
      let v = ref true in
      let found = ref false in
      let i = ref 0 in
      while (not !found) && !i < narms do
        if Array.unsafe_get c (pc + 3 + (3 * !i)) = prev then begin
          found := true;
          v :=
            sval rsh base
              (Array.unsafe_get c (pc + 4 + (3 * !i)))
              (Array.unsafe_get c (pc + 5 + (3 * !i)))
        end;
        incr i
      done;
      Bytes.unsafe_set rsh (base + Array.unsafe_get c (pc + 1))
        (if !v then '\001' else '\000');
      loop c rtag ra rb rsh (pc + 3 + (3 * narms)) base prev steps fp
    | 28 (* SH_MEM_WR pslot sk sv *) ->
      let i = base + Array.unsafe_get c (pc + 1) in
      let ob = deref_obj rt rtag ra rb "shadow store" i in
      Bytes.unsafe_set ob.osh (Array.unsafe_get rb i)
        (if sval rsh base (Array.unsafe_get c (pc + 2)) (Array.unsafe_get c (pc + 3))
         then '\001' else '\000');
      loop c rtag ra rb rsh (pc + 4) base prev steps fp
    | 29 (* SH_OBJ pslot b *) ->
      let i = base + Array.unsafe_get c (pc + 1) in
      let ob = deref_obj rt rtag ra rb "shadow object init" i in
      rt.cnt.sh_obj_cells <- rt.cnt.sh_obj_cells + ob.ocells;
      Bytes.fill ob.osh 0 ob.ocells
        (if Array.unsafe_get c (pc + 2) <> 0 then '\001' else '\000');
      loop c rtag ra rb rsh (pc + 3) base prev steps fp
    | 30 (* SH_GLOBAL_WR gidx sk sv *) ->
      Bytes.unsafe_set rt.sigma_g (Array.unsafe_get c (pc + 1))
        (if sval rsh base (Array.unsafe_get c (pc + 2)) (Array.unsafe_get c (pc + 3))
         then '\001' else '\000');
      loop c rtag ra rb rsh (pc + 4) base prev steps fp
    | 31 (* CHECK slot lbl *) ->
      let slot = Array.unsafe_get c (pc + 1) in
      if slot < 0 || Bytes.unsafe_get rsh (base + slot) = '\000' then
        Bytes.unsafe_set rt.det (Array.unsafe_get c (pc + 2) + 2) '\001';
      loop c rtag ra rb rsh (pc + 3) base prev steps fp
    | bad -> error "vm: invalid opcode %d in %s at %d" bad funcs.(rt.cur).fname pc
  in
  let exit_value, steps =
    loop main.code rt.rtag rt.ra rt.rb rt.rsh 0 0 0 0 0
  in
  (* Reconstruct the cost-model counters from block/function execution
     counts; the two cell accumulators are already in [rt.cnt]. *)
  let cnt = rt.cnt in
  let deltas = bp.deltas in
  for g = 0 to bp.nblocks - 1 do
    let e = rt.bexecs.(g) in
    if e > 0 then begin
      let o = B.ndelta * g in
      cnt.alu <- cnt.alu + (e * deltas.(o + B.d_alu));
      cnt.mem <- cnt.mem + (e * deltas.(o + B.d_mem));
      cnt.branch <- cnt.branch + (e * deltas.(o + B.d_branch));
      cnt.call <- cnt.call + (e * deltas.(o + B.d_call));
      cnt.alloc <- cnt.alloc + (e * deltas.(o + B.d_alloc));
      cnt.io <- cnt.io + (e * deltas.(o + B.d_io));
      cnt.sh_reg <- cnt.sh_reg + (e * deltas.(o + B.d_sh_reg));
      cnt.sh_reg_reads <- cnt.sh_reg_reads + (e * deltas.(o + B.d_sh_reg_reads));
      cnt.sh_mem <- cnt.sh_mem + (e * deltas.(o + B.d_sh_mem));
      cnt.sh_obj <- cnt.sh_obj + (e * deltas.(o + B.d_sh_obj));
      cnt.sh_check <- cnt.sh_check + (e * deltas.(o + B.d_sh_check))
    end
  done;
  Array.iteri
    (fun fi e ->
      if e > 0 then begin
        let d = funcs.(fi).entry_delta in
        cnt.sh_reg <- cnt.sh_reg + (e * d.(B.d_sh_reg));
        cnt.sh_reg_reads <- cnt.sh_reg_reads + (e * d.(B.d_sh_reg_reads));
        cnt.sh_mem <- cnt.sh_mem + (e * d.(B.d_sh_mem));
        cnt.sh_obj <- cnt.sh_obj + (e * d.(B.d_sh_obj));
        cnt.sh_check <- cnt.sh_check + (e * d.(B.d_sh_check))
      end)
    rt.fexecs;
  {
    I.outputs = List.rev rt.outputs_rev;
    exit_value;
    counters = cnt;
    detections = labels_of_bitmap rt.det;
    gt_uses = labels_of_bitmap rt.gt;
    steps;
  }
