(* Graphviz export of value-flow graphs, colored by definedness:
   `usherc analyze prog.tc --dump vfg-dot | dot -Tsvg`. Red = ⊥ (may carry
   an undefined value), black = ⊤; dashed edges are interprocedural. *)

let escape s =
  String.concat ""
    (List.map
       (fun c -> match c with '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let render ?gamma (bld : Build.t) ppf =
  let g = bld.graph in
  let p = bld.prog in
  let objects = bld.pa.objects in
  Fmt.pf ppf "digraph vfg {@.  rankdir=BT;@.";
  Graph.iter_nodes
    (fun id n ->
      let color =
        match gamma with
        | Some gm when Resolve.is_undef gm id -> ", color=red, fontcolor=red"
        | _ -> ""
      in
      let shape =
        match n with
        | Graph.Root_t | Graph.Root_f -> "doublecircle"
        | Graph.Top _ -> "ellipse"
        | Graph.Mem _ -> "box"
      in
      Fmt.pf ppf "  n%d [shape=%s%s, label=\"%s\"];@." id shape color
        (escape (Graph.node_to_string p objects n)))
    g;
  for id = 0 to Graph.nnodes g - 1 do
    Graph.iter_succs g id (fun dst kind ->
        let attr =
          if Graph.is_intra kind then ""
          else Printf.sprintf " [style=dashed, label=\"%s\"]" (Graph.kind_to_string kind)
        in
        Fmt.pf ppf "  n%d -> n%d%s;@." id dst attr)
  done;
  Fmt.pf ppf "}@."

let to_string ?gamma (bld : Build.t) : string =
  Fmt.str "%t" (render ?gamma bld)
