(* Campaign aggregation and the Table 1 requirements model. *)

open Fuzzyflow

let config =
  { Difftest.default_config with trials = 6; max_size = 8; concretization = [ ("N", 8) ] }

let campaign_tests =
  [
    Alcotest.test_case "rows aggregate instances and verdicts" `Quick (fun () ->
        let programs = [ ("scale", Workloads.Npbench.scale ()); ("axpy", Workloads.Npbench.axpy ()) ] in
        let good = Transforms.Map_tiling.make ~tile_size:4 Transforms.Map_tiling.Correct in
        let bad = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible in
        let c = Campaign.run ~config programs [ good; bad ] in
        Alcotest.(check int) "two rows" 2 (List.length c.rows);
        let tiling = List.find (fun (r : Campaign.row) -> r.xform_name = good.name) c.rows in
        Alcotest.(check int) "tiling instances" 2 tiling.instances;
        Alcotest.(check int) "tiling all pass" 0 tiling.failed;
        let vec = List.find (fun (r : Campaign.row) -> r.xform_name = bad.name) c.rows in
        Alcotest.(check int) "vec instances" 2 vec.instances;
        Alcotest.(check int) "vec all fail" 2 vec.failed;
        Alcotest.(check int) "totals" 4 c.total_instances;
        Alcotest.(check int) "total failed" 2 c.total_failed);
    Alcotest.test_case "limit_per caps instance count" `Quick (fun () ->
        let programs = [ ("chain", Workloads.Chain.build ()) ] in
        let x = Transforms.Map_tiling.make Transforms.Map_tiling.Correct in
        let c = Campaign.run ~config ~limit_per:(Some 1) programs [ x ] in
        Alcotest.(check int) "one instance" 1 c.total_instances);
    Alcotest.test_case "table rendering mentions every transformation" `Quick (fun () ->
        let programs = [ ("scale", Workloads.Npbench.scale ()) ] in
        let x = Transforms.Map_tiling.make Transforms.Map_tiling.Correct in
        let c = Campaign.run ~config programs [ x ] in
        let table = Campaign.to_table c in
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "mentions" true (contains table "MapTiling"));
    Alcotest.test_case "every instance of every registered workload concretizes" `Quick
      (fun () ->
        let config =
          { Difftest.default_config with trials = 1; concretization = Workloads.Registry.symbols }
        in
        let c =
          Campaign.run ~config (Workloads.Registry.all ()) (Transforms.Registry.as_shipped ())
        in
        let crashed =
          List.filter_map
            (fun (o : Campaign.outcome) ->
              match o.o_status with
              | Campaign.Crashed { detail } ->
                  Some (Campaign.instance_id ~program:o.o_program ~xform:o.o_xform o.o_site ^ ": " ^ detail)
              | _ -> None)
            c.outcomes
        in
        Alcotest.(check (list string)) "no harness crash" [] crashed);
  ]

let requirements_tests =
  [
    Alcotest.test_case "five capabilities, five representations" `Quick (fun () ->
        Alcotest.(check int) "caps" 5 (List.length Requirements.capabilities);
        Alcotest.(check int) "reprs" 5 (List.length Requirements.representations));
    Alcotest.test_case "parametric dataflow uniquely complete" `Quick (fun () ->
        Alcotest.(check bool) "unique" true (Requirements.parametric_dataflow_is_complete ()));
    Alcotest.test_case "MLIR sub-region support is partial" `Quick (fun () ->
        let mlir =
          List.find (fun (r : Requirements.representation) -> r.name = "MLIR")
            Requirements.representations
        in
        match List.assoc Requirements.Subregion_side_effects mlir.support with
        | Requirements.Partial _ -> ()
        | _ -> Alcotest.fail "expected partial");
    Alcotest.test_case "table renders" `Quick (fun () ->
        Alcotest.(check bool) "nonempty" true (String.length (Requirements.to_table ()) > 200));
  ]

let () =
  Alcotest.run "campaign"
    [ ("campaign", campaign_tests); ("requirements", requirements_tests) ]
