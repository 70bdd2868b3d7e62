(** Dynamic operation counters, the raw material of the cost model. *)

type t = {
  mutable alu : int;          (** const/copy/unop/binop/addr/phi *)
  mutable mem : int;          (** loads + stores *)
  mutable branch : int;
  mutable call : int;         (** calls + returns *)
  mutable alloc : int;
  mutable alloc_cells : int;
  mutable io : int;
  mutable sh_reg : int;       (** shadow register writes *)
  mutable sh_reg_reads : int; (** shadow register reads (conjunction width) *)
  mutable sh_mem : int;       (** shadow memory reads/writes *)
  mutable sh_obj : int;       (** whole-object shadow initializations *)
  mutable sh_obj_cells : int;
  mutable sh_check : int;
}

val create : unit -> t
val base_ops : t -> int
val shadow_ops : t -> int
val copy : t -> t

(** [add_shadow into s] adds [s]'s shadow-program counts to [into]'s. *)
val add_shadow : t -> t -> unit
