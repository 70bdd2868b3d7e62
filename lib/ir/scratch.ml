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

let grow a n dummy =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) dummy in
    Array.blit a 0 b 0 (Array.length a);
    b
  end
