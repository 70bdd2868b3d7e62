(* Process-wide metrics registry of named work counters.

   The registry subsumes the ad-hoc per-run counters scattered through the
   analyses: phases publish their final work counts here (one handful of
   atomic adds per phase, nothing on hot paths), and the bench harness
   snapshots the whole registry into BENCH_usher.json's "metrics" block.
   Timings are not kept here: phase times live in the analysis record and
   the trace's phase spans.

   Domain-safety: every cell is an [Atomic.t], so worker domains under
   `bench --jobs N` merge into the same totals without locks; only
   *registration* (first use of a name) takes the registry mutex. Metric
   handles are meant to be created once at module initialization and then
   updated lock-free. *)

type counter = int Atomic.t

let mu = Mutex.create ()
let tbl : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter (name : string) : counter =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some c -> c
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.replace tbl name c;
        c)

let add (c : counter) (n : int) = ignore (Atomic.fetch_and_add c n)

let incr (c : counter) = add c 1
let counter_value (c : counter) = Atomic.get c

let snapshot () : (string * int) list =
  Mutex.protect mu (fun () ->
      Hashtbl.fold (fun k c acc -> (k, Atomic.get c) :: acc) tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Zero every value; registrations (and handles already
    held by callers) stay valid. Tests and the bench harness use this to
    scope totals. *)
let reset () =
  Mutex.protect mu (fun () -> Hashtbl.iter (fun _ c -> Atomic.set c 0) tbl)
