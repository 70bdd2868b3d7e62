(* Definedness resolution (§3.3): Γ(v) = ⊥ iff v reaches the F root along a
   *realizable* path — interprocedural value flows must match call and
   return edges, approximated with 1-callsite call strings (the paper's
   configuration).

   The traversal runs backwards from F over reversed edges. The context is
   the most recent unmatched call site crossed (or Any); crossing a reversed
   call edge (caller actual -> callee formal, i.e. entering the callee)
   records the site; crossing a reversed return edge (callee return ->
   caller result, i.e. leaving the callee) requires the recorded site to
   match. This only ever *excludes* unrealizable paths, so the analysis
   remains sound.

   By default the search runs over the graph's Eintra-SCC condensation
   (Graph.condensation): members of such an SCC are mutually reachable
   without touching a call or return, so every context-sensitive fact is
   uniform across the component — one visit per component per context
   instead of one per member, with an identical Γ. *)

type ctx = Cany | Cat of Ir.Types.label

(* Process-wide work totals (Obs.Metrics): the per-run counters in [gamma]
   stay the source of truth for tables and baselines; the registry lets
   the bench harness attribute aggregate resolution work across a run. *)
let m_runs = Obs.Metrics.counter "resolve.runs"
let m_states_explored = Obs.Metrics.counter "resolve.states_explored"
let m_condensed_sccs = Obs.Metrics.counter "resolve.condensed_sccs"

type gamma = {
  undef : Bytes.t;           (* Γ(v) = ⊥; one byte per node *)
  states_explored : int;
  condensed_sccs : int;      (* nontrivial SCCs collapsed by the search *)
}

let is_undef (g : gamma) (id : int) = Bytes.unsafe_get g.undef id <> '\000'

(** Reachability from the F root over reversed edges with call/return
    matching. [condense = false] keeps the node-level search as the
    reference path for the equivalence properties. *)
let resolve ?(context_sensitive = true) ?(condense = true) ?budget
    (graph : Graph.t) : gamma =
  let seeds =
    match Graph.find graph Graph.Root_f with Some id -> [ id ] | None -> []
  in
  let n = Graph.nnodes graph in
  let undef = Bytes.make n '\000' in
  let states = ref 0 in
  let condensed = ref 0 in
  let tick () =
    match budget with
    | Some b -> Diag.Budget.tick b Diag.Resolve
    | None -> ()
  in
  (* Sampled search-progress counter for the trace timeline; the enabled
     check keeps the untraced hot loop allocation-free. *)
  let sample () =
    if Obs.Trace.enabled () && !states land 4095 = 1 then
      Obs.Trace.counter ~cat:"resolve" "resolve.search"
        [ ("states", Obs.Trace.Int !states) ]
  in
  (if seeds <> [] then
     if condense then begin
       let c = Graph.condensation graph in
       condensed := c.nontrivial_sccs;
       let mark v =
         for i = Array.unsafe_get c.members_off v
              to Array.unsafe_get c.members_off (v + 1) - 1 do
           Bytes.unsafe_set undef (Array.unsafe_get c.members i) '\001'
         done
       in
       (* Int-array FIFO — no boxed queue cells in the hot loop. It holds
          every state ever queued; one slot per component bounds the
          context-insensitive search and the Any states of the sensitive
          one. *)
       let buf = ref (Array.make (max 16 c.ncomps) 0) in
       let head = ref 0 in
       let tail = ref 0 in
       let enq x =
         if !tail = Array.length !buf then begin
           let b = Array.make (2 * !tail) 0 in
           Array.blit !buf 0 b 0 !tail;
           buf := b
         end;
         !buf.(!tail) <- x;
         incr tail
       in
       if not context_sensitive then begin
         (* Plain reachability over reversed component edges. *)
         let seen = Bytes.make c.ncomps '\000' in
         let push v =
           if Bytes.unsafe_get seen v = '\000' then begin
             Bytes.unsafe_set seen v '\001';
             mark v;
             enq v
           end
         in
         List.iter (fun s -> push c.comp.(s)) seeds;
         while !head < !tail do
           let v = Array.unsafe_get !buf !head in
           incr head;
           incr states;
           sample ();
           tick ();
           for i = Array.unsafe_get c.cpred_off v
                to Array.unsafe_get c.cpred_off (v + 1) - 1 do
             push (Array.unsafe_get c.cpred i lsr c.ckind_bits)
           done
         done
       end
       else begin
         (* Per component: contexts seen; Cany subsumes every Cat. States
            pack as [v lsl shift + ctx] with ctx 0 = Any, l+1 = At l (the
            stride is rounded to a power of two so decode is shift/mask);
            the At table is keyed by the same flat int. *)
         let any_seen = Bytes.make c.ncomps '\000' in
         let shift =
           let s = ref 1 in
           while 1 lsl !s < c.max_label + 2 do incr s done;
           !s
         in
         let mask = (1 lsl shift) - 1 in
         (* Open-addressing set of flat At states (linear probing, -1 =
            empty) — far cheaper per probe than a bucketed Hashtbl. It
            starts at a sixteenth of the components, rounded up to a power
            of two, and doubles at load 1/2. *)
         let at_cap =
           let cap = ref 16 in
           while !cap < c.ncomps / 16 do cap := 2 * !cap done;
           !cap
         in
         let at_tbl = ref (Array.make at_cap (-1)) in
         let at_mask = ref (at_cap - 1) in
         let at_n = ref 0 in
         let at_add k =
           let tbl = !at_tbl in
           let m = !at_mask in
           let i = ref (k * 0x9E3779B1 land m) in
           while
             let s = Array.unsafe_get tbl !i in
             s >= 0 && s <> k
           do
             i := (!i + 1) land m
           done;
           if Array.unsafe_get tbl !i = k then false
           else begin
             Array.unsafe_set tbl !i k;
             incr at_n;
             if 2 * !at_n > m then begin
               (* Rehash at load 1/2. *)
               let m' = (2 * (m + 1)) - 1 in
               let tbl' = Array.make (m' + 1) (-1) in
               Array.iter
                 (fun s ->
                   if s >= 0 then begin
                     let j = ref (s * 0x9E3779B1 land m') in
                     while Array.unsafe_get tbl' !j >= 0 do
                       j := (!j + 1) land m'
                     done;
                     Array.unsafe_set tbl' !j s
                   end)
                 tbl;
               at_tbl := tbl';
               at_mask := m'
             end;
             true
           end
         in
         let push v ctx =
           if ctx = 0 then begin
             if Bytes.unsafe_get any_seen v = '\000' then begin
               Bytes.unsafe_set any_seen v '\001';
               mark v;
               enq (v lsl shift)
             end
           end
           else if
             Bytes.unsafe_get any_seen v = '\000'
             && at_add ((v lsl shift) lor ctx)
           then begin
             mark v;
             enq ((v lsl shift) lor ctx)
           end
         in
         List.iter (fun s -> push c.comp.(s) 0) seeds;
         while !head < !tail do
           let st = Array.unsafe_get !buf !head in
           incr head;
           incr states;
           sample ();
           tick ();
           let v = st lsr shift in
           let ctx = st land mask in
           (* If Any arrived after this At state was queued, skip: Any will
              (or did) explore strictly more. *)
           if not (ctx <> 0 && Bytes.unsafe_get any_seen v = '\001') then begin
             let kb = c.ckind_bits in
             let kmask = (1 lsl kb) - 1 in
             for i = Array.unsafe_get c.cpred_off v
                  to Array.unsafe_get c.cpred_off (v + 1) - 1 do
               let e = Array.unsafe_get c.cpred i in
               let u = e lsr kb in
               let kc = e land kmask in
               if kc = 0 then push u ctx (* Eintra *)
               else if kc land 1 = 1 then
                 (* Ecall l: entering the callee; kc = 2l+1 so the target
                    context l+1 is (kc+1)/2. *)
                 push u ((kc + 1) lsr 1)
               else if ctx = 0 || ctx = kc lsr 1 then
                 (* Eret l: leaving the callee towards site l; kc = 2l+2 so
                    the required context l+1 is kc/2. *)
                 push u 0
             done
           end
         done
       end
     end
     else if not context_sensitive then begin
       (* Plain reachability over reversed edges. *)
       let work = Queue.create () in
       List.iter
         (fun s ->
           Bytes.set undef s '\001';
           Queue.push s work)
         seeds;
       while not (Queue.is_empty work) do
         let v = Queue.pop work in
         incr states;
         sample ();
         tick ();
         Graph.iter_preds graph v (fun u _ ->
             if Bytes.get undef u = '\000' then begin
               Bytes.set undef u '\001';
               Queue.push u work
             end)
       done
     end
     else begin
       (* Per node: set of contexts seen; Cany subsumes every Cat. *)
       let any_seen = Array.make n false in
       let at_seen : (int * Ir.Types.label, unit) Hashtbl.t =
         Hashtbl.create 1024
       in
       let work = Queue.create () in
       let push v ctx =
         match ctx with
         | Cany ->
           if not any_seen.(v) then begin
             any_seen.(v) <- true;
             Bytes.set undef v '\001';
             Queue.push (v, Cany) work
           end
         | Cat l ->
           if (not any_seen.(v)) && not (Hashtbl.mem at_seen (v, l)) then begin
             Hashtbl.replace at_seen (v, l) ();
             Bytes.set undef v '\001';
             Queue.push (v, ctx) work
           end
       in
       List.iter (fun s -> push s Cany) seeds;
       while not (Queue.is_empty work) do
         let v, ctx = Queue.pop work in
         incr states;
         sample ();
         tick ();
         (* If Cany arrived after this Cat state was queued, skip: Cany will
            (or did) explore strictly more. *)
         let stale = match ctx with Cat _ -> any_seen.(v) | Cany -> false in
         if not stale then
           Graph.iter_preds graph v (fun u kind ->
               (* Reversed edge: forward u -> v; we propagate F-reachability
                  from v up to u. *)
               if Graph.is_intra kind then push u ctx
               else if Graph.is_call kind then
                 (* Entering the callee (u is the callee formal). *)
                 push u (Cat (Graph.label kind))
               else
                 (* Leaving the callee towards call site l. *)
                 match ctx with
                 | Cany -> push u Cany
                 | Cat l' -> if Graph.label kind = l' then push u Cany)
       done
     end);
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_states_explored !states;
  Obs.Metrics.add m_condensed_sccs !condensed;
  { undef; states_explored = !states; condensed_sccs = !condensed }

(** The everything-⊥ Γ — the sound fallback when resolution itself faults or
    runs out of budget: treating every node as possibly-undefined can only
    add instrumentation, never remove a check. *)
let all_bot (graph : Graph.t) : gamma =
  {
    undef = Bytes.make (Graph.nnodes graph) '\001';
    states_explored = 0;
    condensed_sccs = 0;
  }

(** Count of ⊥ nodes, for precision ablations. *)
let undef_count (g : gamma) =
  let acc = ref 0 in
  Bytes.iter (fun b -> if b <> '\000' then incr acc) g.undef;
  !acc
