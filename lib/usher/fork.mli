(** Fork-join over domains with one core budget for the whole process.

    {!both} and {!parallel_map} share one count of busy domains, so work
    forked inside a [parallel_map] worker never asks for more domains than
    {!Domain.recommended_domain_count} allows: when no core is free,
    {!both} runs its two thunks inline, one after the other. *)

(** [both f g] runs [f] on the calling domain and [g] on a freshly
    spawned helper domain, and returns both results once the helper has
    joined. When no core is free (or the spawn fails) it is [let a = f ()
    in (a, g ())], all on the caller. No helper outlives the call: an idle
    helper would have to stop for every minor collection.

    If [f] raises, [f]'s exception is re-raised with [f]'s own backtrace,
    whether or not [g] raised too (the sequential order would never have
    run [g]); otherwise [g]'s exception, with [g]'s backtrace. The two
    thunks must not touch mutable state in common. *)
val both : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

(** [parallel_map ~jobs f xs] maps [f] over [xs] on up to [jobs] domains
    (default 1 = plain [List.map]). Work items are claimed from an atomic
    counter; results come back in input order regardless of completion
    order. Failure is fail-fast: once any application raises, no new items
    are handed out (in-flight items finish); after all domains joined, the
    failure at the lowest input index that ran is re-raised with the
    worker's own backtrace. [f] must be safe to run concurrently with
    itself — experiment runs are: every mutable artifact hangs off the
    per-run program. The workers count as busy domains and the caller,
    waiting in its join, does not. *)
val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
