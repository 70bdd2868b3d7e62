(** The shadow-memory execution engine: a direct interpreter for the IR
    that simultaneously

    - executes the concrete program, carrying {e ground-truth} definedness
      on every value (the oracle instrumented runs are judged against);
    - executes one or more instrumentation plans (full = the MSan
      baseline, or any of Usher's guided plans), one per {e lane}: shadow
      registers per frame, shadow memory per object, the sigma_g relay
      array, and E(l) check records;
    - counts dynamic operations for the cost model.

    Shadow state is an int mask, bit k being lane k's defined bit, so one
    concrete execution runs every attached plan at once and also yields
    the native outcome ({!run_lanes}). A one-plan program is the one-lane
    case of the same loop.

    Programs are compiled to a slot-resolved form first, so the hot loop
    resolves no names; it hashes only to record ground-truth uses and
    detections. It keeps values in unboxed planes and counts per block.
    Shadow state defaults to "defined"; only instrumented statements
    write it. Garbage cell contents are a deterministic function of
    object id and offset, so runs are reproducible. *)

exception Runtime_error of string

(** A resource limit (steps, objects, call depth) tripped — the workload
    outgrew the sandbox, as opposed to [Runtime_error], which means the
    program itself misbehaved. *)
exception Resource_exhausted of { what : string; limit : int }

(** {1 Compiled form}

    The slot-resolved program the interpreter executes: variables become
    dense integer slots per function, plan items are attached to each
    instruction as pre/post action arrays, and a phi's own shadow item is
    folded into the phi for atomic parallel evaluation. Every action
    carries the mask of the lanes that execute it. The representation
    is public so [lib/vm] can lower the same compiled program to bytecode
    — both engines share this compilation front ({!compile_base} then
    {!attach}), which is what makes their outcome-for-outcome equivalence
    a meaningful differential oracle. *)

type rop = Rc of int | Rs of int | Ru  (** constant / slot / undef operand *)

type sop = Sc of bool | Ss of int      (** shadow of an operand *)

type crhs =
  | CRconst of bool
  | CRvar of int
  | CRconj of int array
  | CRmem of int                        (** slot holding the pointer *)
  | CRglobal of int
  | CRphi of (int * sop) array          (** by predecessor block *)

type cact =
  | CSet_var of int * crhs
  | CSet_mem of int * sop               (** pointer slot, shadow rhs *)
  | CSet_mem_const of int * bool
  | CSet_mem_object of int * bool
  | CSet_global of int * sop
  | CCheck of int option * Ir.Types.label  (** slot (None = undef operand) *)

(** A shadow statement, run by the lanes in the mask [lanes]. *)
type caction = { act : cact; lanes : int }

(** A phi's folded shadow item, for the lanes whose plans share its arms;
    the entries of one phi have disjoint masks. *)
type cphi_shadow = { sharms : (int * sop) array; sh_lanes : int }

type csize = CFields of int | CArray of rop

type ckind =
  | CConst of int * int
  | CCopy of int * rop
  | CUnop of int * Ir.Types.unop * rop
  | CBinop of int * Ir.Types.binop * rop * rop
  | CAlloc of { dst : int; init : bool; size : csize; name : string }
  | CLoad of int * int
  | CStore of int * rop
  | CField of int * int * int
  | CIndex of int * int * rop
  | CGlobaladdr of int * int            (** dst slot, global objid *)
  | CFuncaddr of int * int              (** dst slot, function index *)
  | CCall of { dst : int option; callee : ccallee; args : rop array }
  | CPhi of {
      dst : int;
      arms : (int * rop) array;
      sh : cphi_shadow array;           (** folded shadow phis, if planned *)
    }
  | COutput of rop
  | CInput of int

and ccallee = CDirect of int | CIndirect of int  (** function index / slot *)

type cinstr = {
  clbl : Ir.Types.label;
  ckind : ckind;
  pre : caction array;
  post : caction array;
}

type cterm = CTBr of rop * int * int | CTJmp of int | CTRet of rop option

(** Per execution, [sh_delta] holds five ints per lane, lane by lane:
    sh_reg, sh_reg_reads, sh_mem, sh_obj, sh_check. It is empty when no
    lane charges any. *)
type cblock = {
  body : cinstr array;                  (** leading phis evaluate in parallel *)
  cterm : cterm;
  term_lbl : Ir.Types.label;
  term_pre : caction array;
  nphis : int;                          (** leading phis *)
  nsteps : int;                         (** steps of one execution *)
  call_free : bool;
  bdelta : int array;                   (** alu, mem, branch, call, alloc, io *)
  sh_delta : int array;
}

type cfunc = {
  cfname : string;
  nslots : int;
  cparams : int array;
  entry_acts : caction array;
  entry_delta : int array;              (** [sh_delta] of [entry_acts] *)
  cblocks : cblock array;
  execs0 : int;                         (** first execution counter *)
}

type cprog = {
  funcs : cfunc array;                  (** by function index *)
  fnames : string array;                (** past [funcs]: names never defined *)
  global_objid : (string, int) Hashtbl.t;
  globals : Ir.Types.global list;
  main : cfunc;
  nglobal_slots : int;                  (** sigma_g size *)
  has_shadow : bool;                    (** a plan instruments anything at all *)
  max_slots : int;                      (** max [nslots] over functions, >= 1 *)
  nlanes : int;                         (** plans attached, one lane each *)
}

(** {1 Compilation}

    Compilation runs in two steps. {!compile_base} does the
    plan-independent work once per program: slots, instruction kinds,
    terminators and parameters. {!attach_lanes} adds plans to a base: their
    actions, the phi shadow folds and [has_shadow]. A native run and every
    plan run of one program can share one base. *)

(** A program compiled with no plan attached. Immutable, so one base may
    serve any number of [attach] calls, from any domain. *)
type base

(** @raise Runtime_error when the program has no [main]. *)
val compile_base : Ir.Prog.t -> base

(** The program a base was compiled from. *)
val program : base -> Ir.Prog.t

(** Most plans one program can carry: one lane per bit of an int, less
    the sign bit. *)
val max_lanes : int

(** The base with every plan attached, plan k as lane k. At each label,
    entry and phi, the actions restricted to lane k are exactly plan k's,
    in plan k's order; equal actions of several lanes run once where that
    order allows. A variable that only plans mention gets a fresh slot
    past the base's.
    @raise Invalid_argument with more than {!max_lanes} plans. *)
val attach_lanes : base -> Instr.Item.plan list -> cprog

(** [attach b plan = attach_lanes b [plan]]: the one-lane case. *)
val attach : base -> Instr.Item.plan -> cprog

(** [compile p plan = attach (compile_base p) plan]: the one-shot form. *)
val compile : Ir.Prog.t -> Instr.Item.plan -> cprog

type outcome = {
  outputs : int list;                            (** program output stream *)
  exit_value : int;
  counters : Counters.t;
  detections : (Ir.Types.label, unit) Hashtbl.t; (** E(l): checks that fired *)
  gt_uses : (Ir.Types.label, unit) Hashtbl.t;    (** ground-truth undefined
                                                     uses at critical ops *)
  steps : int;
}

(** One execution: lane k's outcome is what a run of plan k alone gives.
    [native] is the same execution without instrumentation: the base
    counters with zero shadow counters, no detections. *)
type lane_outcomes = { native : outcome; per_lane : outcome array }

type limits = { max_steps : int; max_objects : int; max_depth : int }

val default_limits : limits

(** Run every lane in one execution.
    @raise Runtime_error on wild memory accesses.
    @raise Resource_exhausted on exceeded limits. *)
val run_lanes : ?limits:limits -> cprog -> lane_outcomes

(** The outcome of a one-lane program.
    @raise Invalid_argument when [cprog] has another number of lanes. *)
val run : ?limits:limits -> cprog -> outcome

(** Run without instrumentation. *)
val run_native : ?limits:limits -> Ir.Prog.t -> outcome

(** Compile with a plan and run. *)
val run_plan : ?limits:limits -> Ir.Prog.t -> Instr.Item.plan -> outcome

(** Sorted views of the outcome's label sets. *)

val detection_labels : outcome -> Ir.Types.label list
val gt_use_labels : outcome -> Ir.Types.label list
