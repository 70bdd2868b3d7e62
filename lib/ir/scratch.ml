(* Per-domain scratch, held weakly. *)

type 'a t = { create : unit -> 'a; key : 'a Weak.t Domain.DLS.key }

let make create = { create; key = Domain.DLS.new_key (fun () -> Weak.create 1) }

let get t =
  let w = Domain.DLS.get t.key in
  match Weak.get w 0 with
  | Some v -> v
  | None ->
    let v = t.create () in
    Weak.set w 0 (Some v);
    v
