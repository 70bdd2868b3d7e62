(* Process-wide metrics registry: counters, gauges, and log2-bucket
   histograms.

   The registry subsumes the ad-hoc per-run counters scattered through the
   analyses: phases publish their final work counts here (one handful of
   atomic adds per phase, nothing on hot paths), and the bench harness
   snapshots the whole registry into BENCH_usher.json's "metrics" block.

   Domain-safety: every cell is an [Atomic.t], so worker domains under
   `bench --jobs N` merge into the same totals without locks; only
   *registration* (first use of a name) takes the registry mutex. Metric
   handles are meant to be created once at module initialization and then
   updated lock-free. *)

type counter = { cname : string; ccell : int Atomic.t }
type gauge = { gname : string; gcell : float Atomic.t }

let nbuckets = 64

type histogram = {
  hname : string;
  buckets : int Atomic.t array; (* bucket i > 0 holds values with bit-length
                                   i, i.e. [2^(i-1), 2^i); bucket 0: v <= 0 *)
  hcount : int Atomic.t;
  hsum : int Atomic.t;
}

type metric = C of counter | G of gauge | H of histogram

let mu = Mutex.create ()
let tbl : (string, metric) Hashtbl.t = Hashtbl.create 64

let register (name : string) (mk : unit -> metric) : metric =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some m -> m
      | None ->
        let m = mk () in
        Hashtbl.replace tbl name m;
        m)

let kind_error name =
  invalid_arg ("Obs.Metrics: " ^ name ^ " already registered with another kind")

let counter (name : string) : counter =
  match
    register name (fun () -> C { cname = name; ccell = Atomic.make 0 })
  with
  | C c -> c
  | _ -> kind_error name

let gauge (name : string) : gauge =
  match register name (fun () -> G { gname = name; gcell = Atomic.make 0.0 }) with
  | G g -> g
  | _ -> kind_error name

let histogram (name : string) : histogram =
  match
    register name (fun () ->
        H
          {
            hname = name;
            buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
            hcount = Atomic.make 0;
            hsum = Atomic.make 0;
          })
  with
  | H h -> h
  | _ -> kind_error name

let add (c : counter) (n : int) = ignore (Atomic.fetch_and_add c.ccell n)

let incr (c : counter) = add c 1
let counter_value (c : counter) = Atomic.get c.ccell

let set (g : gauge) (v : float) = Atomic.set g.gcell v

(* Lock-free monotonic max (CAS loop; contention is negligible — gauges
   are updated at phase boundaries, not in loops). *)
let set_max (g : gauge) (v : float) =
  let rec go () =
    let cur = Atomic.get g.gcell in
    if v > cur && not (Atomic.compare_and_set g.gcell cur v) then go ()
  in
  go ()

let gauge_value (g : gauge) = Atomic.get g.gcell

(** Bucket index of a sample: 0 for v <= 0, otherwise the bit-length of
    [v] (1 for 1, 2 for 2..3, 3 for 4..7, ...), capped at [nbuckets-1]. *)
let bucket_of (v : int) : int =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      b := !b + 1;
      x := !x lsr 1
    done;
    min !b (nbuckets - 1)
  end

(** Inclusive lower bound of bucket [i] ([0] for the v <= 0 bucket). *)
let bucket_lower (i : int) : int = if i <= 0 then 0 else 1 lsl (i - 1)

let observe (h : histogram) (v : int) =
  let b = bucket_of v in
  ignore (Atomic.fetch_and_add h.buckets.(b) 1);
  ignore (Atomic.fetch_and_add h.hcount 1);
  ignore (Atomic.fetch_and_add h.hsum (max 0 v))

type snapshot_value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : int;
      buckets : (int * int) list; (* (inclusive lower bound, count), nonzero only *)
    }

let snapshot () : (string * snapshot_value) list =
  let items =
    Mutex.protect mu (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  items
  |> List.map (fun (name, m) ->
         let v =
           match m with
           | C c -> Counter (Atomic.get c.ccell)
           | G g -> Gauge (Atomic.get g.gcell)
           | H h ->
             let buckets = ref [] in
             for i = nbuckets - 1 downto 0 do
               let n = Atomic.get h.buckets.(i) in
               if n > 0 then buckets := (bucket_lower i, n) :: !buckets
             done;
             Histogram
               {
                 count = Atomic.get h.hcount;
                 sum = Atomic.get h.hsum;
                 buckets = !buckets;
               }
         in
         (name, v))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Zero every value; registrations (and handles already
    held by callers) stay valid. Tests and the bench harness use this to
    scope totals. *)
let reset () =
  Mutex.protect mu (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | C c -> Atomic.set c.ccell 0
          | G g -> Atomic.set g.gcell 0.0
          | H h ->
            Array.iter (fun b -> Atomic.set b 0) h.buckets;
            Atomic.set h.hcount 0;
            Atomic.set h.hsum 0)
        tbl)
