let all () =
  Npbench.all () @ Npb_frontend.all ()
  @ [
      ("bert", Bert.build ());
      ("cloudsc", Cloudsc.build ());
      ("fig4", Fig4.build ());
      ("sddmm", (let g, _, _ = Sddmm.rank_program () in g));
    ]

let find name = List.assoc_opt name (all ())

(* One table keyed by symbol name suffices because no two programs need
   different values for the same name (DESIGN.md, "Symbol valuations"). *)
let symbols =
  [ ("N", 8); ("T", 3) ]
  @ Bert.default_symbols @ Cloudsc.default_symbols
  @ [ ("LROWS", 4); ("NCOLS", 6); ("K", 3); ("R", 3); ("Q", 4) ]

let with_defines defines =
  let last = List.rev defines in
  List.map (fun (s, v) -> (s, Option.value ~default:v (List.assoc_opt s last))) symbols
  @ List.filter (fun (s, _) -> not (List.mem_assoc s symbols)) defines

let symbols_of ?(defines = []) g =
  let free = Sdfg.Graph.all_free_syms g in
  List.filter (fun (s, _) -> List.mem s free) (with_defines defines)
