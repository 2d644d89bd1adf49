let as_shipped () =
  [
    Map_tiling.make Map_tiling.Correct;
    Map_collapse.make ();
    Map_fusion.make Map_fusion.Correct;
    Loop_peeling.make Loop_peeling.Correct;
    State_fusion.make State_fusion.Correct;
    Redundant_array_removal.make ();
    Buffer_tiling.make Buffer_tiling.Wrong_scheduling;
    Tasklet_fusion.make Tasklet_fusion.Ignore_system_state;
    Vectorization.make Vectorization.Assume_divisible;
    Map_expansion.make Map_expansion.Bad_exit_wiring;
    Map_reduce_fusion.make Map_reduce_fusion.Missing_init;
    State_assign_elimination.make State_assign_elimination.Ignore_conditions;
    Symbol_alias_promotion.make Symbol_alias_promotion.Clobber_redefinition;
  ]

let all_correct () =
  [
    Map_tiling.make Map_tiling.Correct;
    Map_collapse.make ();
    Map_fusion.make Map_fusion.Correct;
    Loop_peeling.make Loop_peeling.Correct;
    State_fusion.make State_fusion.Correct;
    Redundant_array_removal.make ();
    Buffer_tiling.make Buffer_tiling.Correct;
    Tasklet_fusion.make Tasklet_fusion.Correct;
    Vectorization.make Vectorization.Correct;
    Map_expansion.make Map_expansion.Correct;
    Map_reduce_fusion.make Map_reduce_fusion.Correct;
    State_assign_elimination.make State_assign_elimination.Correct;
    Symbol_alias_promotion.make Symbol_alias_promotion.Correct;
  ]

let by_name xs name = List.find_opt (fun (x : Xform.t) -> x.name = name) xs

let all () =
  List.fold_left
    (fun acc (x : Xform.t) ->
      if List.exists (fun (y : Xform.t) -> y.name = x.name) acc then acc else x :: acc)
    []
    (as_shipped () @ all_correct ())
  |> List.rev
