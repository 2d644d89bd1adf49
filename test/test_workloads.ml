(* Workload sanity: every program validates and runs; semantic spot checks
   against references. *)

open Sdfg

let default_inputs g ~symbols =
  let env = Symbolic.Expr.Env.of_list symbols in
  List.filter_map
    (fun (c, (d : Graph.datadesc)) ->
      if d.transient then None
      else
        let n = List.fold_left (fun v e -> v * max 1 (Symbolic.Expr.eval env e)) 1 d.shape in
        Some (c, Array.init n (fun i -> (0.01 *. float_of_int (i mod 17)) +. 0.5)))
    (Graph.containers g)

let smoke_tests =
  List.map
    (fun (name, g) ->
      Alcotest.test_case name `Quick (fun () ->
          (match Validate.check g with
          | [] -> ()
          | e :: _ -> Alcotest.fail (Format.asprintf "%a" Validate.pp_error e));
          let symbols = Workloads.Registry.symbols_of g in
          match Interp.Exec.run g ~symbols ~inputs:(default_inputs g ~symbols) with
          | Ok _ -> ()
          | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)))
    (Workloads.Registry.all ())

let registry_tests =
  [
    Alcotest.test_case "a define overrides one symbol and keeps the rest" `Quick (fun () ->
        let v = Workloads.Registry.with_defines [ ("N", 12); ("X", 5); ("N", 13) ] in
        Alcotest.(check (option int)) "overridden, last wins" (Some 13) (List.assoc_opt "N" v);
        Alcotest.(check (option int)) "kept" (List.assoc_opt "KLEV" Workloads.Registry.symbols)
          (List.assoc_opt "KLEV" v);
        Alcotest.(check (option int)) "appended" (Some 5) (List.assoc_opt "X" v);
        Alcotest.(check int) "one entry per table symbol"
          (List.length Workloads.Registry.symbols + 1)
          (List.length v));
  ]

let farr = Alcotest.(array (float 1e-9))

let semantic_tests =
  [
    Alcotest.test_case "softmax rows sum to one" `Quick (fun () ->
        let g = Workloads.Npbench.softmax () in
        let n = 5 in
        let inp = Array.init (n * n) (fun i -> Float.sin (float_of_int i)) in
        (match Interp.Exec.run g ~symbols:[ ("N", n) ] ~inputs:[ ("inp", inp); ("out", Array.make (n * n) 0.) ] with
        | Ok o ->
            let out = (Interp.Value.buffer o.memory "out").data in
            for i = 0 to n - 1 do
              let s = ref 0. in
              for j = 0 to n - 1 do
                s := !s +. out.((i * n) + j)
              done;
              Alcotest.(check (float 1e-6)) "row sum" 1.0 !s
            done
        | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)));
    Alcotest.test_case "matmul chain of identities is identity" `Quick (fun () ->
        let g = Workloads.Chain.build () in
        let n = 4 in
        let ident = Array.init (n * n) (fun i -> if i / n = i mod n then 1. else 0.) in
        (match
           Interp.Exec.run g ~symbols:[ ("N", n) ]
             ~inputs:
               [ ("A", ident); ("B", ident); ("C", ident); ("D", ident); ("R", Array.make (n * n) 0.) ]
         with
        | Ok o -> Alcotest.check farr "R = I" ident (Interp.Value.buffer o.memory "R").data
        | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)));
    Alcotest.test_case "distributed sddmm equals reference for several rank counts" `Quick
      (fun () ->
        let rows = 8 and cols = 6 and k = 3 in
        let h1 = Array.init (rows * k) (fun i -> Float.cos (float_of_int i)) in
        let h2 = Array.init (cols * k) (fun i -> Float.sin (float_of_int (i * 2))) in
        let mask = Array.init (rows * cols) (fun i -> if i mod 3 = 0 then 1. else 0.) in
        let reference = Workloads.Sddmm.reference ~rows ~cols ~k ~h1 ~h2 ~mask in
        List.iter
          (fun ranks ->
            let dist = Workloads.Sddmm.distributed ~ranks ~rows ~cols ~k ~h1 ~h2 ~mask in
            Alcotest.check farr (Printf.sprintf "%d ranks" ranks) reference dist)
          [ 1; 2; 4; 8 ]);
    Alcotest.test_case "bert encoder attention rows are convex weights" `Quick (fun () ->
        let g, _, _ = Workloads.Bert.build_with_site () in
        let symbols = [ ("B", 1); ("H", 1); ("SM", 8); ("P", 2) ] in
        let inputs = default_inputs g ~symbols in
        (match Interp.Exec.run g ~symbols ~inputs with
        | Ok o ->
            let w = (Interp.Value.buffer o.memory "omega").data in
            (* each row of omega sums to ~1 (softmax weights) *)
            for i = 0 to 7 do
              let s = ref 0. in
              for j = 0 to 7 do
                s := !s +. w.((i * 8) + j)
              done;
              Alcotest.(check (float 1e-6)) "row" 1.0 !s
            done
        | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)));
    Alcotest.test_case "cloudsc is deterministic" `Quick (fun () ->
        let g = Workloads.Cloudsc.build () in
        let symbols = Workloads.Cloudsc.default_symbols in
        let inputs = default_inputs g ~symbols in
        let run () =
          match Interp.Exec.run g ~symbols ~inputs with
          | Ok o -> (Interp.Value.buffer o.memory "fplsl").data
          | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)
        in
        Alcotest.check farr "same" (run ()) (run ()));
    Alcotest.test_case "conv2d matches direct convolution" `Quick (fun () ->
        let g = Workloads.Npbench.conv2d () in
        let n = 5 in
        let inp = Array.init ((n + 2) * (n + 2)) (fun i -> float_of_int (i mod 7)) in
        let w = Array.init 9 (fun i -> float_of_int (i + 1) /. 10.) in
        (match
           Interp.Exec.run g ~symbols:[ ("N", n) ]
             ~inputs:[ ("inp", inp); ("w", w); ("out", Array.make (n * n) 0.) ]
         with
        | Ok o ->
            let out = (Interp.Value.buffer o.memory "out").data in
            let expect = Array.make (n * n) 0. in
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                for ki = 0 to 2 do
                  for kj = 0 to 2 do
                    expect.((i * n) + j) <-
                      expect.((i * n) + j)
                      +. (inp.(((i + ki) * (n + 2)) + j + kj) *. w.((ki * 3) + kj))
                  done
                done
              done
            done;
            Alcotest.check farr "conv" expect out
        | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)));
  ]


(* appended: frontend-sourced NPBench kernels *)
let frontend_kernel_tests =
  List.map
    (fun (name, g) ->
      Alcotest.test_case ("frontend " ^ name) `Quick (fun () ->
          let symbols =
            List.filter
              (fun (s, _) -> List.mem s (Graph.all_free_syms g))
              [ ("N", 6); ("T", 2); ("H", 4); ("R", 3); ("Q", 4); ("P", 3) ]
          in
          match Interp.Exec.run g ~symbols ~inputs:(default_inputs g ~symbols) with
          | Ok _ -> ()
          | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)))
    (Workloads.Npb_frontend.all ())

let frontend_semantic_tests =
  [
    Alcotest.test_case "trisolv solves lower-triangular systems" `Quick (fun () ->
        let g = List.assoc "trisolv" (Workloads.Npb_frontend.all ()) in
        let n = 4 in
        (* L = unit lower-triangular with 0.5 below the diagonal *)
        let l =
          Array.init (n * n) (fun idx ->
              let i = idx / n and j = idx mod n in
              if i = j then 1. else if j < i then 0.5 else 0.)
        in
        let b = Array.init n (fun i -> float_of_int (i + 1)) in
        (match
           Interp.Exec.run g ~symbols:[ ("N", n) ]
             ~inputs:[ ("L", l); ("b", b); ("x", Array.make n 0.) ]
         with
        | Ok o ->
            let x = (Interp.Value.buffer o.memory "x").data in
            (* forward substitution reference *)
            let expect = Array.make n 0. in
            for i = 0 to n - 1 do
              let s = ref 0. in
              for j = 0 to i - 1 do
                s := !s +. (0.5 *. expect.(j))
              done;
              expect.(i) <- (b.(i) -. !s) /. (1. +. 1e-9)
            done;
            Alcotest.(check (array (float 1e-6))) "x" expect x
        | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)));
    Alcotest.test_case "floyd_warshall finds shortest paths" `Quick (fun () ->
        let g = List.assoc "floyd_warshall" (Workloads.Npb_frontend.all ()) in
        let inf = 1e6 in
        (* 0 -1-> 1 -1-> 2, plus a direct 0->2 edge of weight 5 *)
        let dist = [| 0.; 1.; 5.; inf; 0.; 1.; inf; inf; 0. |] in
        (match Interp.Exec.run g ~symbols:[ ("N", 3) ] ~inputs:[ ("dist", dist) ] with
        | Ok o ->
            let d = (Interp.Value.buffer o.memory "dist").data in
            Alcotest.(check (float 1e-9)) "0->2 via 1" 2. d.(2)
        | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)));
    Alcotest.test_case "syrk matches reference" `Quick (fun () ->
        let g = List.assoc "syrk" (Workloads.Npb_frontend.all ()) in
        let n = 3 in
        let a = Array.init (n * n) (fun i -> float_of_int (i mod 4) -. 1.5) in
        let c0 = Array.init (n * n) (fun i -> float_of_int i) in
        (match
           Interp.Exec.run g ~symbols:[ ("N", n) ]
             ~inputs:[ ("alpha", [| 2. |]); ("beta", [| 0.5 |]); ("A", a); ("C", Array.copy c0) ]
         with
        | Ok o ->
            let c = (Interp.Value.buffer o.memory "C").data in
            let expect = Array.map (fun v -> 0.5 *. v) c0 in
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                for k = 0 to n - 1 do
                  expect.((i * n) + j) <-
                    expect.((i * n) + j) +. (2. *. a.((i * n) + k) *. a.((j * n) + k))
                done
              done
            done;
            Alcotest.(check (array (float 1e-9))) "C" expect c
        | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)));
  ]

let () =
  Alcotest.run "workloads"
    [
      ("smoke", smoke_tests);
      ("registry", registry_tests);
      ("semantics", semantic_tests);
      ("frontend_kernels", frontend_kernel_tests);
      ("frontend_semantics", frontend_semantic_tests);
    ]
