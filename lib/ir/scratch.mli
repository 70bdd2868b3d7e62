(** Scratch state that passes reuse from one program to the next: one
    value per domain, held weakly, so a major collection frees it once no
    pass is using it. Reuse spares a stream of small programs from
    allocating large scratch arrays, which go straight to the major heap,
    for each program. *)

type 'a t

(** A new holder; [create] makes the value when none is held. *)
val make : (unit -> 'a) -> 'a t

(** The calling domain's value, made on first use or after a major
    collection freed it. *)
val get : 'a t -> 'a
