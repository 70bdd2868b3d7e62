(* Machine-speed probe. The small shared machines this benchmark runs on
   slow processes down by up to ~1.5x for stretches of seconds to
   minutes. A fixed kernel, timed between programs, tracks those
   stretches: on 40-program chunks of gen-small the chunk time varied by
   40% over 90 s while its ratio to the adjacent probe, taken over 4 s
   windows, varied by about 2%. Program and setup times are therefore
   scaled by [reference_ns / median reading] to one machine speed, the
   speed at which the kernel takes [reference_ns] (see [Report.speed]).

   The kernel allocates like the pipeline does (lists, sorting, hash
   tables) but only short-lived blocks, so its time does not depend on the
   workload's live heap; a 300 MB live heap left it unchanged. It uses no
   code of the system under test, so no change to that code moves it. *)

(* Median kernel time on an idle core of the 2-core machine the
   benchmark was defined on. *)
let reference_ns = 3_200_000

let kernel () =
  let acc = ref 0 in
  for r = 1 to 40 do
    let l = List.init 1000 (fun i -> ((i * 7919) + (r * 31)) land 4095) in
    let l = List.sort compare l in
    let h = Hashtbl.create 64 in
    List.iter (fun x -> Hashtbl.replace h (x land 255) x) l;
    acc := !acc + Hashtbl.length h + List.hd l
  done;
  ignore (Sys.opaque_identity !acc)

(* Median of three kernel runs, in ns. *)
let measure () : int =
  let once () =
    let t0 = Obs.Clock.now_ns () in
    kernel ();
    Obs.Clock.elapsed_ns t0
  in
  let a = once () in
  let b = once () in
  let c = once () in
  max (min a b) (min (max a b) c)
