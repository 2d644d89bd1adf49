(* Differential proof obligation for compile-once execution plans: every
   workload in lib/workloads (including fig4 and the frontend-built NPB
   kernels) runs through both the reference tree-walk and the plan path, and
   the outcomes must be bit-identical — final memory down to the float bits,
   step counts, injection counters, and coverage sets. *)

open Sdfg

let exec_tree = Interp.Exec.run_tree
let exec_plan = Interp.Exec.run

(* deterministic, value-diverse inputs for every non-transient container *)
let inputs_for g ~symbols =
  let env = Symbolic.Expr.Env.of_list symbols in
  List.filter_map
    (fun (c, (d : Graph.datadesc)) ->
      if d.transient then None
      else
        let n = List.fold_left (fun v e -> v * max 1 (Symbolic.Expr.eval env e)) 1 d.shape in
        Some (c, Array.init n (fun i -> (0.125 *. float_of_int ((i * 7 mod 23) - 11)) +. 0.5)))
    (Graph.containers g)

let symbols_for g =
  List.map (fun s -> (s, if s = "T" then 3 else 6)) (Graph.all_free_syms g)

let roster () =
  List.map (fun (n, g) -> (n, g, symbols_for g)) (Workloads.Npbench.all ())
  @ List.map (fun (n, g) -> ("frontend:" ^ n, g, symbols_for g)) (Workloads.Npb_frontend.all ())
  @ [
      ("fig4", Workloads.Fig4.build (), symbols_for (Workloads.Fig4.build ()));
      ("chain", Workloads.Chain.build (), symbols_for (Workloads.Chain.build ()));
      ("bert", Workloads.Bert.build (), Workloads.Bert.default_symbols);
      ("cloudsc", Workloads.Cloudsc.build (), Workloads.Cloudsc.default_symbols);
      ("sddmm",
       (let g, _, _ = Workloads.Sddmm.rank_program () in g),
       symbols_for (let g, _, _ = Workloads.Sddmm.rank_program () in g));
    ]

let check_same name a b =
  match (a, b) with
  | Error f1, Error f2 ->
      Alcotest.(check string)
        (name ^ ": fault") (Interp.Exec.fault_to_string f1) (Interp.Exec.fault_to_string f2)
  | Ok _, Error f ->
      Alcotest.fail (name ^ ": tree ok, plan faulted: " ^ Interp.Exec.fault_to_string f)
  | Error f, Ok _ ->
      Alcotest.fail (name ^ ": tree faulted, plan ok: " ^ Interp.Exec.fault_to_string f)
  | Ok o1, Ok o2 ->
      Alcotest.(check int) (name ^ ": steps") o1.Interp.Exec.steps o2.Interp.Exec.steps;
      Alcotest.(check int) (name ^ ": writes") o1.Interp.Exec.writes o2.Interp.Exec.writes;
      Alcotest.(check int) (name ^ ": subsets") o1.Interp.Exec.subsets o2.Interp.Exec.subsets;
      Alcotest.(check (list int)) (name ^ ": coverage") o1.Interp.Exec.coverage
        o2.Interp.Exec.coverage;
      let names m = Hashtbl.fold (fun k _ acc -> k :: acc) m [] |> List.sort compare in
      Alcotest.(check (list string))
        (name ^ ": containers")
        (names o1.Interp.Exec.memory) (names o2.Interp.Exec.memory);
      Hashtbl.iter
        (fun c (b1 : Interp.Value.buffer) ->
          let b2 = Interp.Value.buffer o2.Interp.Exec.memory c in
          Alcotest.(check (array int64))
            (name ^ ": memory of " ^ c)
            (Array.map Int64.bits_of_float b1.data)
            (Array.map Int64.bits_of_float b2.data))
        o1.Interp.Exec.memory

let differential ?config name g ~symbols ~inputs =
  check_same name (exec_tree ?config g ~symbols ~inputs) (exec_plan ?config g ~symbols ~inputs)

let cov_config = { Interp.Exec.default_config with collect_coverage = true }

let workload_tests =
  [
    Alcotest.test_case "plan matches tree-walk on every workload" `Quick (fun () ->
        List.iter
          (fun (name, g, symbols) ->
            differential ~config:cov_config name g ~symbols ~inputs:(inputs_for g ~symbols))
          (roster ()));
    Alcotest.test_case "parity holds with no inputs (garbage-free zero fill)" `Quick (fun () ->
        List.iter
          (fun (name, g, symbols) -> differential ~config:cov_config name g ~symbols ~inputs:[])
          (roster ()));
  ]

(* every injection kind, on workloads exercising tasklets, WCR, library
   nodes, interstate loops — counters and fault signatures must agree *)
let injection_tests =
  let injections =
    [
      Interp.Exec.Flip_bit { nth_write = 2; bit = 52 };
      Interp.Exec.Set_nan { nth_write = 0 };
      Interp.Exec.Set_inf { nth_write = 3 };
      Interp.Exec.Shift_index { nth_subset = 1; delta = 1 };
      Interp.Exec.Shift_index { nth_subset = 4; delta = -2 };
      Interp.Exec.Burn_steps { after = 10 };
    ]
  in
  let subjects () =
    [
      ("scale", Workloads.Npbench.scale ());
      ("gemm", Workloads.Npbench.gemm ());
      ("mm_lib", Workloads.Npbench.mm_lib ());
      ("softmax", Workloads.Npbench.softmax ());
      ("fig4", Workloads.Fig4.build ());
    ]
  in
  [
    Alcotest.test_case "injection parity across all fault kinds" `Quick (fun () ->
        List.iter
          (fun (name, g) ->
            let symbols = symbols_for g in
            let inputs = inputs_for g ~symbols in
            List.iter
              (fun inject ->
                let config =
                  { Interp.Exec.default_config with inject = Some inject; collect_coverage = true }
                in
                differential ~config
                  (name ^ " under " ^ Interp.Exec.injection_to_string inject)
                  g ~symbols ~inputs)
              injections)
          (subjects ()));
  ]

let fault_tests =
  [
    Alcotest.test_case "unbound symbol faults identically" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        differential "scale without N" g ~symbols:[] ~inputs:[]);
    Alcotest.test_case "hang faults identically at a tiny step budget" `Quick (fun () ->
        let g = Workloads.Fig4.build () in
        let symbols = symbols_for g in
        let config = { Interp.Exec.default_config with step_limit = 17 } in
        (match exec_plan ~config g ~symbols ~inputs:[] with
        | Error (Interp.Exec.Hang _) -> ()
        | Ok _ -> Alcotest.fail "expected a hang"
        | Error f -> Alcotest.fail ("expected a hang, got " ^ Interp.Exec.fault_to_string f));
        differential ~config "fig4 at limit 17" g ~symbols ~inputs:[]);
    Alcotest.test_case "oversized input rejected identically" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        differential "scale bad input" g ~symbols:[ ("N", 4) ]
          ~inputs:[ ("x", Array.make 9 1.) ]);
    Alcotest.test_case "gpu garbage is identical under both paths" `Quick (fun () ->
        let g = Graph.create "gpu_garbage" in
        Graph.add_array g ~transient:true ~storage:Gpu "d" Dtype.F64 [ Symbolic.Expr.int 5 ];
        Graph.add_array g "y" Dtype.F64 [ Symbolic.Expr.int 5 ];
        let st = Graph.state g (Graph.add_state g "s") in
        ignore (Builder.Build.copy g st ~src:"d" ~dst:"y" ());
        differential "gpu garbage copy" g ~symbols:[] ~inputs:[];
        (* and the garbage really is the deterministic non-zero fill *)
        match exec_plan g ~symbols:[] ~inputs:[] with
        | Ok o ->
            let y = (Interp.Value.buffer o.Interp.Exec.memory "y").data in
            Alcotest.(check bool) "nonzero garbage" true (Array.exists (fun v -> v <> 0.) y)
        | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f));
  ]

let cache_tests =
  [
    Alcotest.test_case "cache hits on repeated (digest, symbols)" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let c = Interp.Plan.Cache.create () in
        let digest = Interp.Plan.Cache.digest_of g in
        (match Interp.Plan.Cache.compile ~digest c g ~symbols:[ ("N", 4) ] with
        | Ok _ -> ()
        | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f));
        ignore (Interp.Plan.Cache.compile ~digest c g ~symbols:[ ("N", 4) ]);
        (* symbol order must not matter for the key *)
        let g2 = Workloads.Npbench.axpy () in
        let d2 = Interp.Plan.Cache.digest_of g2 in
        ignore (Interp.Plan.Cache.compile ~digest:d2 c g2 ~symbols:[ ("N", 4) ]);
        let hits, misses = Interp.Plan.Cache.stats c in
        Alcotest.(check int) "hits" 1 hits;
        Alcotest.(check int) "misses" 2 misses);
    Alcotest.test_case "cached plan executes identically to a fresh run" `Quick (fun () ->
        let g = Workloads.Npbench.gemm () in
        let symbols = [ ("N", 5) ] in
        let inputs = inputs_for g ~symbols in
        let c = Interp.Plan.Cache.create () in
        let p =
          match Interp.Plan.Cache.compile c g ~symbols with
          | Ok p -> p
          | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)
        in
        (* executing the same plan twice must not leak state between runs *)
        let o1 = Interp.Plan.execute ~config:cov_config p ~inputs in
        let o2 = Interp.Plan.execute ~config:cov_config p ~inputs in
        check_same "plan reuse" o1 o2;
        check_same "plan vs one-shot" (exec_plan ~config:cov_config g ~symbols ~inputs) o1);
    Alcotest.test_case "distinct valuations get distinct plans" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let c = Interp.Plan.Cache.create () in
        ignore (Interp.Plan.Cache.compile c g ~symbols:[ ("N", 4) ]);
        ignore (Interp.Plan.Cache.compile c g ~symbols:[ ("N", 5) ]);
        let _, misses = Interp.Plan.Cache.stats c in
        Alcotest.(check int) "misses" 2 misses;
        match Interp.Plan.Cache.compile c g ~symbols:[ ("N", 5) ] with
        | Ok p -> (
            match Interp.Plan.execute p ~inputs:[ ("x", Array.make 5 2.); ("a", [| 3. |]) ] with
            | Ok o ->
                Alcotest.(check int)
                  "N=5 plan allocates 5 elements" 5
                  (Array.length (Interp.Value.buffer o.Interp.Exec.memory "y").data)
            | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f))
        | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f));
  ]

(* difftest / fuzzer verdicts are unchanged by cache sharing *)
let consumer_tests =
  [
    Alcotest.test_case "difftest verdict is cache-oblivious" `Quick (fun () ->
        let g, sid, mm2 = Workloads.Chain.build_with_site () in
        let site = Transforms.Xform.dataflow_site ~state:sid ~nodes:[ mm2 ] ~descr:"tile" in
        let config =
          { Fuzzyflow.Difftest.default_config with trials = 6; max_size = 6;
            concretization = [ ("N", 6) ] }
        in
        let run ?plan_cache () =
          List.map
            (fun variant ->
              let x = Transforms.Map_tiling.make ~tile_size:3 variant in
              let r = Fuzzyflow.Difftest.test_instance ?plan_cache ~config g x site in
              Format.asprintf "%a" Fuzzyflow.Difftest.pp_report r)
            [ Transforms.Map_tiling.Correct; Transforms.Map_tiling.Off_by_one ]
        in
        let shared = Interp.Plan.Cache.create () in
        Alcotest.(check (list string)) "verdicts" (run ()) (run ~plan_cache:shared ()));
  ]

(* ---------------- periodic hangs ---------------- *)

(* Every StateAssignElimination(ignore-conditions) site of the roster,
   applied to a copy of its program: the eliminated loop-counter update
   leaves loops that either revisit the same state every trip (the plan
   tier fast-forwards them) or keep changing their buffers (it runs them to
   the limit). Shared with test/test_kernel.ml in spirit, not in code. *)
let sae_hang_programs () =
  let x =
    Transforms.State_assign_elimination.make
      Transforms.State_assign_elimination.Ignore_conditions
  in
  List.concat_map
    (fun (name, g, symbols) ->
      List.filter_map
        (fun site ->
          let g' = Graph.copy g in
          match x.apply g' site with
          | _ -> Some (name ^ "@" ^ Transforms.Xform.site_slug site, g', symbols)
          | exception Transforms.Xform.Cannot_apply _ -> None)
        (x.find g))
    (roster ())

let periodic_tests =
  [
    Alcotest.test_case "hangs of every SAE(ignore-conditions) site match the tree-walk" `Quick
      (fun () ->
        let periodic = ref 0 and drifting = ref 0 in
        List.iter
          (fun (name, g, symbols) ->
            List.iter
              (fun (tag, inputs) ->
                List.iter
                  (fun step_limit ->
                    let config = { Interp.Exec.default_config with step_limit } in
                    let before = Interp.Period.fast_forwards () in
                    let plan = exec_plan ~config g ~symbols ~inputs in
                    let fired = Interp.Period.fast_forwards () > before in
                    check_same
                      (Printf.sprintf "%s %s at limit %d" name tag step_limit)
                      (exec_tree ~config g ~symbols ~inputs)
                      plan;
                    match plan with
                    | Error (Interp.Exec.Hang _) when step_limit = 100_003 ->
                        incr (if fired then periodic else drifting)
                    | _ -> ())
                  [ 777; 12_345; 100_003 ])
              [ ("inputs", inputs_for g ~symbols); ("zeros", []) ])
          (sae_hang_programs ());
        Alcotest.(check bool) "some hangs are fast-forwarded" true (!periodic > 0);
        Alcotest.(check bool) "some hangs drift and run to the limit" true (!drifting > 0));
  ]

let () =
  Alcotest.run "plan"
    [
      ("workloads", workload_tests);
      ("injection", injection_tests);
      ("faults", fault_tests);
      ("periodic", periodic_tests);
      ("cache", cache_tests);
      ("consumers", consumer_tests);
    ]
