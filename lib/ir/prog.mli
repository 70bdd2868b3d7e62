(** Program-level operations: variable/label allocation and lookups.

    A {!t} owns the program-wide variable table (every SSA version is a
    distinct entry) and the label counter. Labels are program-unique and
    dense, so analyses attach side tables as arrays indexed by label. *)

type t = Types.t

(** Fresh, empty program. *)
val create : unit -> t

(** Allocate the next statement label. *)
val fresh_label : t -> Types.label

(** Allocate a new top-level variable owned by function [owner]. *)
val fresh_var : t -> name:string -> owner:Types.fname -> Types.var

(** [fresh_version p v ~ver] creates a new SSA version of [v]'s base
    variable, numbered [ver]. *)
val fresh_version : t -> Types.var -> ver:int -> Types.var

(** Metadata of a variable. *)
val varinfo : t -> Types.var -> Types.varinfo

(** Display name, ["x"] or ["x.2"] for SSA versions. *)
val var_name : t -> Types.var -> string

(** Number of variables allocated so far. *)
val nvars : t -> int

(** Register a new function (in declaration order). *)
val add_func : t -> Types.func -> unit

(** Replace a function in place after a transforming pass. *)
val update_func : t -> Types.func -> unit

(** [map_funcs g p] replaces every function [fn] by [g fn], in
    declaration order, in one pass; {!update_func} per function would be
    quadratic in the number of functions. [g] must keep the name. *)
val map_funcs : (Types.func -> Types.func) -> t -> unit

val find_func : t -> Types.fname -> Types.func option

(** @raise Invalid_argument on unknown functions. *)
val get_func : t -> Types.fname -> Types.func

val iter_funcs : (Types.func -> unit) -> t -> unit
val fold_funcs : ('a -> Types.func -> 'a) -> 'a -> t -> 'a

val add_global : t -> Types.global -> unit

(** Number of labels allocated so far; plans and side tables are arrays
    indexed by label. *)
val nlabels : t -> int

(** Iterate every instruction (with its function and block). *)
val iter_instrs : (Types.func -> Types.block -> Types.instr -> unit) -> t -> unit

(** Iterate every block terminator. *)
val iter_terms : (Types.func -> Types.block -> Types.term -> unit) -> t -> unit

(** Number of IR statements (instructions + terminators). *)
val size : t -> int
