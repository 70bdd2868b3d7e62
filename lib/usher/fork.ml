(* Fork-join with a shared core budget.

   [busy] counts the domains doing work: the main domain, every helper
   [both] spawned, and every [parallel_map] worker, less the
   [parallel_map] caller while it waits in its join. A helper is only
   spawned when that count is below the recommended domain count, so
   bench's [--jobs 2] on two cores leaves no room for a fork inside an
   experiment, and one experiment on two cores gets one helper. *)

let cores = Domain.recommended_domain_count ()
let busy = Atomic.make 1

let rec reserve () =
  let b = Atomic.get busy in
  b < cores && (Atomic.compare_and_set busy b (b + 1) || reserve ())

let release () = Atomic.decr busy

let catching f =
  match f () with
  | r -> Ok r
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

(* A new domain records backtraces only when told to, so each spawned
   domain inherits its parent's setting. *)
let spawn f =
  let record = Printexc.backtrace_status () in
  Domain.spawn (fun () ->
      Printexc.record_backtrace record;
      f ())

let both (f : unit -> 'a) (g : unit -> 'b) : 'a * 'b =
  let helper =
    if not (reserve ()) then None
    else
      match spawn (fun () -> Fun.protect ~finally:release (fun () -> catching g)) with
      | d -> Some d
      | exception _ ->
        release ();
        None
  in
  match helper with
  | None ->
    let a = f () in
    (a, g ())
  | Some d -> (
    let a = catching f in
    let b = Domain.join d in
    match (a, b) with
    | Ok a, Ok b -> (a, b)
    | Error (e, bt), _ | Ok _, Error (e, bt) -> Printexc.raise_with_backtrace e bt)

(* Bounded parallel map: fork [min jobs n] domains that claim input
   indices from one atomic counter, then join them all. Each slot of
   [results] is written by exactly one domain, and [Domain.join] orders
   those writes before the reads below. Results keep input order.

   Failure handling: fail-fast — the first recorded failure makes every
   domain stop claiming indices (items already running still finish).
   After the join, the failure at the lowest input index that actually
   ran is re-raised *with the worker's backtrace*
   ([Printexc.raise_with_backtrace]; a bare [raise] here would replace
   the worker's trace with the caller's). Which trailing items were
   skipped depends on scheduling, but the success outcome and the raised
   exception's provenance do not. *)
let parallel_map ?(jobs = 1) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let input = Array.of_list xs in
  let n = Array.length input in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let results : ('b, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && not (Atomic.get failed) then begin
        (match f input.(i) with
        | r -> results.(i) <- Some (Ok r)
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          results.(i) <- Some (Error (e, bt));
          Atomic.set failed true);
        work ()
      end
    in
    let workers = min jobs n in
    ignore (Atomic.fetch_and_add busy (workers - 1));
    Fun.protect
      ~finally:(fun () -> ignore (Atomic.fetch_and_add busy (1 - workers)))
      (fun () ->
        List.init workers (fun _ -> spawn work) |> List.iter Domain.join);
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) | None -> ())
      results;
    Array.to_list results
    |> List.map (function
         | Some (Ok r) -> r
         | Some (Error _) | None -> assert false)
  end
