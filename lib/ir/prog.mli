(** Program-level operations: variable/label allocation and lookups.

    A {!t} owns the program-wide variable table (every SSA version is a
    distinct entry), the function numbers and the label counter. Every
    client that numbers functions (the analysis index, the interpreter)
    reads {!func_number} and {!func_at}. Labels are program-unique and
    dense, so analyses attach side tables as arrays indexed by label. *)

type t = Types.t

(** Fresh, empty program. *)
val create : unit -> t

(** Allocate the next statement label. *)
val fresh_label : t -> Types.label

(** Allocate a new top-level variable owned by function [owner]. *)
val fresh_var : t -> name:string -> owner:Types.fname -> Types.var

(** Metadata of a variable. *)
val varinfo : t -> Types.var -> Types.varinfo

(** Display name, ["x"] or ["x.2"] for SSA versions. *)
val var_name : t -> Types.var -> string

(** Number of variables allocated so far. *)
val nvars : t -> int

(** Register a new function. It takes the next function number, so
    functions are numbered [0 .. nfuncs - 1] in declaration order; a name
    defined again names its last definition from then on. *)
val add_func : t -> Types.func -> unit

(** Number of function definitions. *)
val nfuncs : t -> int

(** The function with a number.
    @raise Invalid_argument out of [0 .. nfuncs - 1]. *)
val func_at : t -> int -> Types.func

(** The number of a name's last definition, or -1. *)
val func_number : t -> Types.fname -> int

(** Replace a name's last definition in place, keeping its number, after
    a transforming pass.
    @raise Diag.Error on unknown functions. *)
val update_func : t -> Types.func -> unit

(** [map_funcs g p] replaces every function [fn] by [g fn], in number
    order, keeping the numbers. [g] must keep the name. *)
val map_funcs : (Types.func -> Types.func) -> t -> unit

(** A name's last definition. *)
val find_func : t -> Types.fname -> Types.func option

(** A name's last definition.
    @raise Diag.Error on unknown functions. *)
val get_func : t -> Types.fname -> Types.func

(** Every definition, shadowed ones too, in number order. *)
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
