(* Translation validation: machine-checkable certificates for proved
   transformation instances, refutation witnesses that replay to concrete
   divergence under the interpreter, and the pipeline/campaign gates that
   skip fuzz trials on a proof. *)

open Sdfg
module B = Builder.Build
module X = Transforms.Xform
module E = Analysis.Equiv

let sym = Symbolic.Expr.sym

let symbols_of g =
  List.filter (fun (s, _) -> List.mem s (Graph.all_free_syms g)) [ ("N", 8); ("T", 3) ]

let first_site (x : X.t) g =
  match x.find g with
  | [] -> Alcotest.failf "%s: no site on %s" x.name (Graph.name g)
  | s :: _ -> s

let tiling = Transforms.Map_tiling.make ~tile_size:32 Transforms.Map_tiling.Correct

(* producer tmp[i] -> consumer tmp[i+1]: fusable only when offsets are
   ignored, and then incorrectly — the fused iteration reads an element no
   earlier iteration has produced, so divergence shows even under the
   interpreter's sequential ascending schedule *)
let stencil_pair () =
  let g = Graph.create "stencil_pair" in
  Graph.add_array g "x" Dtype.F64 [ sym "N" ];
  Graph.add_array g "out" Dtype.F64 [ sym "N" ];
  Graph.add_array g ~transient:true "tmp" Dtype.F64 [ sym "N" ];
  let sid = Graph.add_state g "main" in
  let st = Graph.state g sid in
  let m1 =
    B.mapped_tasklet g st ~label:"prod"
      ~map:[ ("i", "1:N-2") ]
      ~inputs:[ ("v", B.mem "x" "i") ]
      ~code:"o = v * 2.0"
      ~outputs:[ ("o", B.mem "tmp" "i") ]
      ()
  in
  ignore
    (B.mapped_tasklet g st ~label:"cons"
       ~map:[ ("i", "1:N-2") ]
       ~inputs:[ ("v", B.mem "tmp" "i+1") ]
       ~code:"o = v + 1.0"
       ~outputs:[ ("o", B.mem "out" "i") ]
       ~input_nodes:[ ("tmp", List.assoc "tmp" m1.B.out_access) ]
       ());
  g

let certify_tests =
  [
    Alcotest.test_case "map tiling on scale yields a checkable certificate" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        match E.certify ~symbols:(symbols_of g) g tiling (first_site tiling g) with
        | Some (E.Equivalent cert) ->
            Alcotest.(check bool) "certificate re-checks" true (Analysis.Certificate.check cert);
            Alcotest.(check bool) "has entries" true (cert.entries <> []);
            Alcotest.(check bool)
              "covers an external write" true
              (List.exists
                 (fun (e : Analysis.Certificate.entry) -> e.side = Analysis.Certificate.Write)
                 cert.entries)
        | Some v -> Alcotest.failf "expected equivalent, got %s" (E.verdict_name v)
        | None -> Alcotest.fail "site went stale");
    Alcotest.test_case "one instance per workload family certifies equivalent" `Quick (fun () ->
        let npb = Workloads.Npbench.all () in
        let cases =
          [
            ("scale", List.assoc "scale" npb, tiling);
            ("axpy", List.assoc "axpy" npb, Transforms.Vectorization.make Transforms.Vectorization.Correct);
            ("gemm", List.assoc "gemm" npb, tiling);
            ("mvt", List.assoc "mvt" npb, tiling);
            ("softmax", List.assoc "softmax" npb, tiling);
            ("fig4", Workloads.Fig4.build (), tiling);
            ("copy_chain", List.assoc "copy_chain" npb, Transforms.Redundant_array_removal.make ());
            ("nested_scale", List.assoc "nested_scale" npb, Transforms.Map_collapse.make ());
            ( "doitgen",
              List.assoc "doitgen" (Workloads.Npb_frontend.all ()),
              Transforms.Map_expansion.make Transforms.Map_expansion.Correct );
          ]
        in
        List.iter
          (fun (name, g, (x : X.t)) ->
            let proved =
              List.exists
                (fun site ->
                  match E.certify ~symbols:(symbols_of g) g x site with
                  | Some (E.Equivalent _) -> true
                  | _ -> false)
                (x.find g)
            in
            if not proved then Alcotest.failf "%s: no %s instance certified equivalent" name x.name)
          cases);
    Alcotest.test_case "known-unsound hint vetoes certification" `Quick (fun () ->
        (* a no-op transformation trivially preserves all summaries, but a
           Known_unsound hint must still keep it from certifying *)
        let g = Workloads.Npbench.scale () in
        let noop =
          {
            X.name = "noop-marked-unsound";
            find = (fun _ -> [ X.dataflow_site ~state:0 ~nodes:[] ~descr:"whole program" ]);
            apply = (fun _ _ -> Diff.empty);
            certify_hint = Some (X.Known_unsound "marked for the veto test");
          }
        in
        match E.certify ~symbols:(symbols_of g) g noop (first_site noop g) with
        | Some (E.Unknown why) ->
            let contains hay needle =
              let nh = String.length hay and nn = String.length needle in
              let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
              at 0
            in
            Alcotest.(check bool) "mentions the unsound marker" true (contains why "unsound")
        | Some v -> Alcotest.failf "expected unknown, got %s" (E.verdict_name v)
        | None -> Alcotest.fail "site went stale");
    Alcotest.test_case "bindings the graph does not use leave a verdict unchanged" `Quick
      (fun () ->
        (* an unused binding would add an assumption to the certificate and
           a dimension to the refutation grid *)
        let g = Workloads.Npbench.scale () in
        let site = first_site tiling g in
        let symbols = symbols_of g in
        let unused = List.init 10 (fun i -> (Printf.sprintf "U%d" i, 4)) in
        let v = E.certify ~symbols g tiling site
        and v' = E.certify ~symbols:(symbols @ unused) g tiling site in
        Alcotest.(check bool) "proved" true (match v with Some (E.Equivalent _) -> true | _ -> false);
        Alcotest.(check bool) "same verdict" true (v = v'));
    Alcotest.test_case "correct vectorization of a 2-D map is not refuted" `Quick (fun () ->
        (* two rows of the vectorized map run the same inner lane range on
           different data; that is no duplicated iteration *)
        let g = Workloads.Npbench.mvt () in
        let x = Transforms.Vectorization.make Transforms.Vectorization.Correct in
        List.iter
          (fun site ->
            match E.certify ~symbols:(symbols_of g) g x site with
            | Some (E.Refuted _ as v) ->
                Alcotest.failf "refuted: %s" (Format.asprintf "%a" E.pp_verdict v)
            | _ -> ())
          (x.find g));
  ]

let buf o name = (Interp.Value.buffer o.Interp.Exec.memory name).data

let refute_tests =
  [
    Alcotest.test_case "offset-ignoring fusion refuted; witness replays to divergence" `Quick
      (fun () ->
        let g = stencil_pair () in
        let x = Transforms.Map_fusion.make Transforms.Map_fusion.Ignore_offsets in
        let site = first_site x g in
        match E.certify ~symbols:[ ("N", 8) ] g x site with
        | Some (E.Refuted w) ->
            let n = List.assoc "N" w.valuation in
            Alcotest.(check bool) "valuation binds N >= 2" true (n >= 2);
            (* replay the witness valuation through the interpreter on the
               original and the transformed program: the fused consumer reads
               tmp[i] where it should read tmp[i-1], so out must diverge *)
            let g' = Graph.copy g in
            ignore (x.apply g' site);
            let inputs = [ ("x", Array.init n (fun i -> float_of_int (i + 1))) ] in
            let run h = Interp.Exec.run h ~symbols:w.valuation ~inputs in
            (match (run g, run g') with
            | Ok o1, Ok o2 ->
                Alcotest.(check bool)
                  "out buffers diverge" true
                  (buf o1 "out" <> buf o2 "out")
            | Ok _, Error _ -> () (* a fault in the transformed program is divergence too *)
            | Error f, _ ->
                Alcotest.failf "original program faulted: %s" (Interp.Exec.fault_to_string f))
        | Some v -> Alcotest.failf "expected refuted, got %s" (E.verdict_name v)
        | None -> Alcotest.fail "site went stale");
    Alcotest.test_case "no-remainder tiling is refuted" `Quick (fun () ->
        let g = Workloads.Fig4.build () in
        let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.No_remainder in
        match E.certify ~symbols:[ ("N", 8) ] g x (first_site x g) with
        | Some (E.Refuted _) -> ()
        | Some v -> Alcotest.failf "expected refuted, got %s" (E.verdict_name v)
        | None -> Alcotest.fail "site went stale");
  ]

let propagate_tests =
  [
    Alcotest.test_case "widen_range collapses a parameter in the stride" `Quick (fun () ->
        let open Symbolic in
        let r = Subset.dim ~step:(sym "i") (Expr.int 0) (sym "N") in
        let prange = Subset.dim (Expr.int 1) (Expr.int 4) in
        let w = Propagate.widen_range ~param:"i" ~prange r in
        Alcotest.(check bool) "stride widens to 1" true (Expr.equal w.Subset.step Expr.one);
        Alcotest.(check bool)
          "parameter eliminated" true
          (not (List.mem "i" (Subset.free_syms [ w ])));
    );
    Alcotest.test_case "through_map rejects mismatched params/ranges" `Quick (fun () ->
        let open Symbolic in
        Alcotest.check_raises "length guard"
          (Invalid_argument "Propagate.through_map: 2 params vs 1 ranges (malformed map scope)")
          (fun () ->
            ignore
              (Propagate.through_map ~params:[ "i"; "j" ]
                 ~ranges:[ Subset.dim (Expr.int 0) (Expr.int 3) ]
                 [ Subset.index (sym "i") ])));
  ]

let gate_tests =
  [
    Alcotest.test_case "pipeline static gate proves and skips fuzzing" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let config =
          { Fuzzyflow.Difftest.default_config with trials = 8; max_size = 8; concretization = [ ("N", 8) ] }
        in
        let _, log = Fuzzyflow.Pipeline.optimize ~config ~static_gate:true g [ tiling ] in
        Alcotest.(check int) "one proved" 1 log.proved;
        Alcotest.(check bool)
          "a Proved_equivalent step with a valid certificate" true
          (List.exists
             (fun (s : Fuzzyflow.Pipeline.step) ->
               match s.decision with
               | Fuzzyflow.Pipeline.Proved_equivalent c -> Analysis.Certificate.check c
               | _ -> false)
             log.steps));
    Alcotest.test_case "campaign certify gate skips proved instances' trials" `Quick (fun () ->
        let programs = [ ("scale", Workloads.Npbench.scale ()) ] in
        let config =
          { Fuzzyflow.Difftest.default_config with trials = 6; max_size = 8; concretization = [ ("N", 8) ] }
        in
        let off = Fuzzyflow.Campaign.run ~config programs [ tiling ] in
        let on = Fuzzyflow.Campaign.run ~config ~certify_gate:true programs [ tiling ] in
        Alcotest.(check int) "same instances" off.total_instances on.total_instances;
        Alcotest.(check bool) "gate off spends trials" true (Fuzzyflow.Campaign.trials_spent off > 0);
        Alcotest.(check int) "gate on spends none" 0 (Fuzzyflow.Campaign.trials_spent on);
        Alcotest.(check int) "proved counted" on.total_instances on.total_proved;
        List.iter
          (fun (r : Fuzzyflow.Campaign.instance_result) ->
            Alcotest.(check bool) "no report on proved instance" true (r.report = None);
            match r.verdict with
            | Some (E.Equivalent _) -> ()
            | _ -> Alcotest.fail "expected an equivalent verdict")
          on.results);
  ]

let () =
  Alcotest.run "equiv"
    [
      ("certify", certify_tests);
      ("refute", refute_tests);
      ("propagate", propagate_tests);
      ("gate", gate_tests);
    ]
