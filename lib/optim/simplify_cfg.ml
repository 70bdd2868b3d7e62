(* CFG cleanup: drop unreachable blocks (renumbering the rest and patching
   branch targets and phi arms). Runs before mem2reg and after inlining. *)

open Ir.Types

let remove_unreachable (f : func) : func =
  let reach = Ir.Func.reachable f in
  if Array.for_all (fun b -> b) reach then f
  else begin
    let remap = Array.make (Array.length f.blocks) (-1) in
    let next = ref 0 in
    Array.iteri
      (fun i r ->
        if r then begin
          remap.(i) <- !next;
          incr next
        end)
      reach;
    let keep = Array.to_list f.blocks |> List.filter (fun b -> reach.(b.bid)) in
    let blocks =
      List.mapi
        (fun i b ->
          let tkind =
            match b.term.tkind with
            | Br (o, b1, b2) -> Br (o, remap.(b1), remap.(b2))
            | Jmp b1 -> Jmp remap.(b1)
            | Ret o -> Ret o
          in
          let instrs =
            List.map
              (fun ins ->
                match ins.kind with
                | Phi (x, arms) ->
                  let arms =
                    List.filter_map
                      (fun (src, o) ->
                        if reach.(src) then Some (remap.(src), o) else None)
                      arms
                  in
                  { ins with kind = Phi (x, arms) }
                | _ -> ins)
              b.instrs
          in
          { bid = i; instrs; term = { b.term with tkind } })
        keep
    in
    { f with blocks = Array.of_list blocks }
  end

let run (p : Ir.Prog.t) : unit = Ir.Prog.map_funcs remove_unreachable p
