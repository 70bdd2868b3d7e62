(* Dynamic operation counters, the raw material of the cost model. All
   counts are per run. *)

type t = {
  (* base program *)
  mutable alu : int;          (* const/copy/unop/binop/addr/phi *)
  mutable mem : int;          (* loads + stores *)
  mutable branch : int;       (* conditional branches *)
  mutable call : int;         (* calls + returns *)
  mutable alloc : int;
  mutable alloc_cells : int;
  mutable io : int;
  (* shadow program *)
  mutable sh_reg : int;       (* shadow register ops (Set_var, Set_global) *)
  mutable sh_reg_reads : int; (* shadow register reads (conjunction width) *)
  mutable sh_mem : int;       (* shadow memory reads/writes *)
  mutable sh_obj : int;       (* whole-object shadow initializations *)
  mutable sh_obj_cells : int;
  mutable sh_check : int;
}

let create () =
  {
    alu = 0; mem = 0; branch = 0; call = 0; alloc = 0; alloc_cells = 0; io = 0;
    sh_reg = 0; sh_reg_reads = 0; sh_mem = 0; sh_obj = 0; sh_obj_cells = 0;
    sh_check = 0;
  }

let base_ops t = t.alu + t.mem + t.branch + t.call + t.alloc + t.io
let shadow_ops t = t.sh_reg + t.sh_mem + t.sh_obj + t.sh_check

let copy t = { t with alu = t.alu }

let add_shadow into s =
  into.sh_reg <- into.sh_reg + s.sh_reg;
  into.sh_reg_reads <- into.sh_reg_reads + s.sh_reg_reads;
  into.sh_mem <- into.sh_mem + s.sh_mem;
  into.sh_obj <- into.sh_obj + s.sh_obj;
  into.sh_obj_cells <- into.sh_obj_cells + s.sh_obj_cells;
  into.sh_check <- into.sh_check + s.sh_check
