open Sdfg

type variant = Correct | Missing_dependencies

(* Fusable: s1 -> s2 is s1's only outgoing and s2's only incoming interstate
   edge, unconditional and without assignments. *)
let find g =
  List.filter_map
    (fun (e : Graph.istate_edge) ->
      if
        e.cond = Symbolic.Cond.True && e.assigns = []
        && List.length (Graph.out_istate_edges g e.src) = 1
        && List.length (Graph.in_istate_edges g e.dst) = 1
        && e.src <> e.dst
      then
        Some
          (Xform.controlflow_site ~states:[ e.src; e.dst ]
             ~descr:(Printf.sprintf "fuse states %d+%d" e.src e.dst))
      else None)
    (Graph.istate_edges g)

(* Containers written in a state, with the access nodes receiving them. *)
let written_accesses st =
  List.concat_map
    (fun (e : State.edge) ->
      match State.node_opt st e.dst with
      | Some (Node.Access d) when e.memlet <> None || e.dst_memlet <> None -> [ (d, e.dst) ]
      | _ -> [])
    (State.edges st)
  |> List.sort_uniq compare

let apply variant g (site : Xform.site) =
  match site.states with
  | [ s1; s2 ] -> (
      match (Graph.state_opt g s1, Graph.state_opt g s2) with
      | Some st1, Some st2 ->
          let edge =
            List.find_opt
              (fun (e : Graph.istate_edge) -> e.src = s1 && e.dst = s2)
              (Graph.istate_edges g)
          in
          if edge = None then raise (Xform.Cannot_apply "state_fusion: edge gone");
          let writers1 = written_accesses st1 in
          (* consumers in s1 reading each container (for write-after-read);
             a map consumer is anchored on its exit, since an edge out of
             the entry would pull the copied node into the map scope *)
          let readers1 =
            List.concat_map
              (fun (e : State.edge) ->
                match (State.node_opt st1 e.src, e.memlet) with
                | Some (Node.Access d), Some _ -> (
                    match State.node st1 e.dst with
                    | Node.Map_entry _ -> [ (d, State.exit_of st1 e.dst) ]
                    | _ -> [ (d, e.dst) ])
                | _ -> [])
              (State.edges st1)
            |> List.sort_uniq compare
          in
          let mapping = Xform.copy_state_into ~src:st2 ~dst:st1 in
          (* order: copied accesses run after s1's writers (RAW/WAW) and
             after s1's readers (WAR) of the same container *)
          if variant = Correct then
            List.iter
              (fun (old_id, new_id) ->
                match State.node st1 new_id with
                | Node.Access d ->
                    ignore old_id;
                    List.iter
                      (fun (d', w) -> if d' = d && w <> new_id then ignore (State.add_edge st1 w new_id))
                      writers1;
                    List.iter
                      (fun (d', r) -> if d' = d && r <> new_id then ignore (State.add_edge st1 r new_id))
                      readers1
                | _ -> ())
              mapping;
          (* s2's outgoing interstate edges leave from s1 now; the rerouting
             also changes the incoming control flow of their target states *)
          let succs = ref [] in
          List.iter
            (fun (e : Graph.istate_edge) ->
              if e.src = s2 then begin
                succs := e.dst :: !succs;
                Graph.remove_istate_edge g e.ie_id;
                ignore (Graph.add_istate_edge g ~cond:e.cond ~assigns:e.assigns s1 e.dst)
              end)
            (Graph.istate_edges g);
          Graph.remove_state g s2;
          { Diff.nodes = []; states = List.sort_uniq compare (s1 :: s2 :: !succs) }
      | _ -> raise (Xform.Cannot_apply "state_fusion: states missing"))
  | _ -> raise (Xform.Cannot_apply "state_fusion: bad site")

let make variant =
  let name =
    match variant with
    | Correct -> "StateFusion"
    | Missing_dependencies -> "StateFusion(missing-deps)"
  in
  let certify_hint =
    match variant with
    | Correct -> Some Xform.Preserves_sets
    | Missing_dependencies ->
        Some (Xform.Known_unsound "fuses states without sequencing their shared-container accesses")
  in
  { Xform.name; find; apply = apply variant; certify_hint }
