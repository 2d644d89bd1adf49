(* Interpreter semantics: tasklets, maps, WCR, library nodes, copies, GPU
   garbage, faults (OOB / hang / invalid), control flow and coverage. *)

open Sdfg

let se = Symbolic.Expr.sym
let farr = Alcotest.(array (float 1e-9))

let run ?config g ~symbols ~inputs =
  match Interp.Exec.run ?config g ~symbols ~inputs with
  | Ok o -> o
  | Error f -> Alcotest.fail ("run failed: " ^ Interp.Exec.fault_to_string f)

let buf o name = (Interp.Value.buffer o.Interp.Exec.memory name).data

let expect_fault ?config g ~symbols ~inputs pred name =
  match Interp.Exec.run ?config g ~symbols ~inputs with
  | Ok _ -> Alcotest.fail (name ^ ": expected a fault")
  | Error f ->
      if not (pred f) then
        Alcotest.fail (name ^ ": wrong fault " ^ Interp.Exec.fault_to_string f)

(* y[i] = a * x[i] over a map *)
let value_tests =
  [
    Alcotest.test_case "mapped tasklet computes elementwise" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let x = Array.init 6 (fun i -> float_of_int i) in
        let o = run g ~symbols:[ ("N", 6) ] ~inputs:[ ("x", x); ("a", [| 3. |]) ] in
        Alcotest.check farr "y" (Array.map (fun v -> 3. *. v) x) (buf o "y"));
    Alcotest.test_case "axpy matches reference" `Quick (fun () ->
        let g = Workloads.Npbench.axpy () in
        let x = [| 1.; 2.; 3. |] and y = [| 10.; 20.; 30. |] in
        let o = run g ~symbols:[ ("N", 3) ] ~inputs:[ ("x", x); ("y", y); ("a", [| 2. |]) ] in
        Alcotest.check farr "z" [| 12.; 24.; 36. |] (buf o "z"));
    Alcotest.test_case "wcr accumulation computes matmul" `Quick (fun () ->
        let g = Workloads.Npbench.gemm () in
        let n = 3 in
        let a = Array.init (n * n) (fun i -> float_of_int (i + 1)) in
        let b = Array.init (n * n) (fun i -> float_of_int ((i mod 3) - 1)) in
        let c0 = Array.make (n * n) 1. in
        let o =
          run g ~symbols:[ ("N", n) ]
            ~inputs:[ ("A", a); ("B", b); ("C", c0); ("alpha", [| 1. |]); ("beta", [| 0. |]) ]
        in
        (* reference *)
        let expect = Array.make (n * n) 0. in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            for k = 0 to n - 1 do
              expect.((i * n) + j) <- expect.((i * n) + j) +. (a.((i * n) + k) *. b.((k * n) + j))
            done
          done
        done;
        Alcotest.check farr "C" expect (buf o "C"));
    Alcotest.test_case "library matmul equals wcr matmul" `Quick (fun () ->
        let n = 4 in
        let a = Array.init (n * n) (fun i -> Float.sin (float_of_int i)) in
        let b = Array.init (n * n) (fun i -> Float.cos (float_of_int i)) in
        let lib = Workloads.Npbench.mm_lib () in
        let o1 =
          run lib ~symbols:[ ("N", n) ] ~inputs:[ ("A", a); ("B", b); ("C", Array.make (n * n) 0.) ]
        in
        let gm = Workloads.Npbench.gemm () in
        let o2 =
          run gm ~symbols:[ ("N", n) ]
            ~inputs:
              [ ("A", a); ("B", b); ("C", Array.make (n * n) 0.); ("alpha", [| 1. |]); ("beta", [| 0. |]) ]
        in
        Alcotest.check farr "same" (buf o1 "C") (buf o2 "C"));
    Alcotest.test_case "reduce library sums" `Quick (fun () ->
        let g = Workloads.Npbench.sum1d () in
        let x = Array.init 10 (fun i -> float_of_int i) in
        let o = run g ~symbols:[ ("N", 10) ] ~inputs:[ ("x", x) ] in
        Alcotest.check farr "sum" [| 45. |] (buf o "out"));
    Alcotest.test_case "reduce over one axis of two" `Quick (fun () ->
        let g = Graph.create "r" in
        Graph.add_array g "A" Dtype.F64 [ Symbolic.Expr.int 2; Symbolic.Expr.int 3 ];
        Graph.add_array g "out" Dtype.F64 [ Symbolic.Expr.int 2 ];
        let st = Graph.state g (Graph.add_state g "s") in
        ignore
          (Builder.Build.library g st ~label:"rowsum" ~kind:(Node.Reduce (Memlet.Wcr_sum, [ 1 ]))
             ~inputs:[ ("in", Builder.Build.mem "A" "0:1, 0:2") ]
             ~outputs:[ ("out", Builder.Build.mem "out" "0:1") ]
             ());
        let o = run g ~symbols:[] ~inputs:[ ("A", [| 1.; 2.; 3.; 4.; 5.; 6. |]) ] in
        Alcotest.check farr "rows" [| 6.; 15. |] (buf o "out"));
    Alcotest.test_case "copy edge moves subsets" `Quick (fun () ->
        let g = Graph.create "cp" in
        Graph.add_array g "a" Dtype.F64 [ Symbolic.Expr.int 6 ];
        Graph.add_array g "b" Dtype.F64 [ Symbolic.Expr.int 3 ];
        let st = Graph.state g (Graph.add_state g "s") in
        ignore
          (Builder.Build.copy g st ~src:"a" ~dst:"b"
             ~src_subset:(Symbolic.Subset.of_string "1:3")
             ~dst_subset:(Symbolic.Subset.of_string "0:2")
             ());
        let o = run g ~symbols:[] ~inputs:[ ("a", [| 0.; 10.; 20.; 30.; 40.; 50. |]) ] in
        Alcotest.check farr "b" [| 10.; 20.; 30. |] (buf o "b"));
    Alcotest.test_case "f32 casting rounds" `Quick (fun () ->
        let v = Interp.Value.cast Dtype.F32 0.1 in
        Alcotest.(check bool) "lost precision" true (v <> 0.1);
        Alcotest.(check bool) "close" true (Float.abs (v -. 0.1) < 1e-7));
    Alcotest.test_case "int casting truncates" `Quick (fun () ->
        Alcotest.(check (float 0.)) "i64" 3. (Interp.Value.cast Dtype.I64 3.9);
        Alcotest.(check (float 0.)) "neg" (-3.) (Interp.Value.cast Dtype.I64 (-3.9));
        Alcotest.(check (float 0.)) "bool" 1. (Interp.Value.cast Dtype.Bool 0.5));
  ]

let fault_tests =
  [
    Alcotest.test_case "out of bounds read detected" `Quick (fun () ->
        let g = Graph.create "oob" in
        Graph.add_symbol g "N";
        Graph.add_array g "x" Dtype.F64 [ se "N" ];
        Graph.add_array g "y" Dtype.F64 [ se "N" ];
        let st = Graph.state g (Graph.add_state g "s") in
        ignore
          (Builder.Build.mapped_tasklet g st ~label:"shift"
             ~map:[ ("i", "0:N-1") ]
             ~inputs:[ ("v", Memlet.simple "x" "i+1") ]
             ~code:"o = v"
             ~outputs:[ ("o", Memlet.simple "y" "i") ]
             ());
        expect_fault g ~symbols:[ ("N", 4) ]
          ~inputs:[ ("x", Array.make 4 0.) ]
          (function Interp.Exec.Out_of_bounds _ -> true | _ -> false)
          "oob");
    Alcotest.test_case "infinite loop detected as hang" `Quick (fun () ->
        let g = Graph.create "spin" in
        let s0 = Graph.add_state g "s0" in
        let _ =
          Builder.Build.for_loop g ~entry_from:s0 ~var:"i" ~init:Symbolic.Expr.zero
            ~cond:(Symbolic.Cond.Ge (se "i", Symbolic.Expr.zero))
            ~update:(Symbolic.Expr.add (se "i") Symbolic.Expr.one)
            ~body_label:"spin" ~after_label:"after"
        in
        expect_fault
          ~config:{ Interp.Exec.default_config with step_limit = 5000 }
          g ~symbols:[] ~inputs:[]
          (function Interp.Exec.Hang _ -> true | _ -> false)
          "hang");
    Alcotest.test_case "invalid graph rejected before running" `Quick (fun () ->
        let g = Graph.create "bad" in
        let st = Graph.state g (Graph.add_state g "s") in
        ignore (State.add_node st (Node.Access "ghost"));
        expect_fault g ~symbols:[] ~inputs:[]
          (function Interp.Exec.Invalid_graph _ -> true | _ -> false)
          "invalid");
    Alcotest.test_case "missing symbol is a runtime error" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        expect_fault g ~symbols:[] ~inputs:[]
          (function Interp.Exec.Runtime_error _ | Interp.Exec.Invalid_graph _ -> true | _ -> false)
          "missing symbol");
    Alcotest.test_case "wrong input size is a runtime error" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        expect_fault g ~symbols:[ ("N", 4) ]
          ~inputs:[ ("x", Array.make 3 0.); ("a", [| 1. |]) ]
          (function Interp.Exec.Runtime_error _ -> true | _ -> false)
          "size mismatch");
  ]

let gpu_tests =
  [
    Alcotest.test_case "gpu buffers garbage-initialized deterministically" `Quick (fun () ->
        let g = Graph.create "gpu" in
        Graph.add_array g ~transient:true ~storage:Graph.Gpu "d" Dtype.F64 [ Symbolic.Expr.int 8 ];
        Graph.add_array g "h" Dtype.F64 [ Symbolic.Expr.int 8 ];
        let st = Graph.state g (Graph.add_state g "s") in
        ignore (Builder.Build.copy g st ~src:"d" ~dst:"h" ());
        let o1 = run g ~symbols:[] ~inputs:[] in
        let o2 = run g ~symbols:[] ~inputs:[] in
        Alcotest.check farr "deterministic" (buf o1 "h") (buf o2 "h");
        Alcotest.(check bool) "garbage nonzero" true (Array.exists (fun v -> v <> 0.) (buf o1 "h")));
    Alcotest.test_case "different seed different garbage" `Quick (fun () ->
        let g = Graph.create "gpu" in
        Graph.add_array g ~transient:true ~storage:Graph.Gpu "d" Dtype.F64 [ Symbolic.Expr.int 8 ];
        Graph.add_array g "h" Dtype.F64 [ Symbolic.Expr.int 8 ];
        let st = Graph.state g (Graph.add_state g "s") in
        ignore (Builder.Build.copy g st ~src:"d" ~dst:"h" ());
        let c1 = { Interp.Exec.default_config with garbage_seed = 1 } in
        let c2 = { Interp.Exec.default_config with garbage_seed = 2 } in
        let o1 = run ~config:c1 g ~symbols:[] ~inputs:[] in
        let o2 = run ~config:c2 g ~symbols:[] ~inputs:[] in
        Alcotest.(check bool) "differs" true (buf o1 "h" <> buf o2 "h"));
    Alcotest.test_case "host transient zero-initialized" `Quick (fun () ->
        let g = Graph.create "z" in
        Graph.add_array g ~transient:true "t" Dtype.F64 [ Symbolic.Expr.int 4 ];
        Graph.add_array g "h" Dtype.F64 [ Symbolic.Expr.int 4 ];
        let st = Graph.state g (Graph.add_state g "s") in
        ignore (Builder.Build.copy g st ~src:"t" ~dst:"h" ());
        let o = run g ~symbols:[] ~inputs:[] in
        Alcotest.check farr "zeros" [| 0.; 0.; 0.; 0. |] (buf o "h"));
  ]

let control_tests =
  [
    Alcotest.test_case "for loop executes trip-count times" `Quick (fun () ->
        let g = Workloads.Npbench.jacobi_1d () in
        let n = 8 in
        let x = Array.init n (fun i -> float_of_int (i * i)) in
        let o = run g ~symbols:[ ("N", n); ("T", 2) ] ~inputs:[ ("A", Array.copy x); ("B", Array.make n 0.) ] in
        (* reference: 2 iterations of fwd+bwd smoothing *)
        let a = Array.copy x and b = Array.make n 0. in
        for _ = 1 to 2 do
          for i = 1 to n - 2 do
            b.(i) <- 0.33333 *. (a.(i - 1) +. a.(i) +. a.(i + 1))
          done;
          for i = 1 to n - 2 do
            a.(i) <- 0.33333 *. (b.(i - 1) +. b.(i) +. b.(i + 1))
          done
        done;
        Alcotest.check farr "A" a (buf o "A"));
    Alcotest.test_case "zero-trip loop skips body" `Quick (fun () ->
        let g = Workloads.Npbench.jacobi_1d () in
        let n = 6 in
        let x = Array.init n float_of_int in
        let o = run g ~symbols:[ ("N", n); ("T", 0) ] ~inputs:[ ("A", Array.copy x); ("B", Array.make n 0.) ] in
        Alcotest.check farr "unchanged" x (buf o "A"));
    Alcotest.test_case "scalar containers visible to conditions" `Quick (fun () ->
        (* loop until a scalar flag flips *)
        let g = Graph.create "flag" in
        Graph.add_scalar g "count" Dtype.I64;
        let s0 = Graph.add_state g "init" in
        let _, body, _ =
          Builder.Build.for_loop g ~entry_from:s0 ~var:"i" ~init:Symbolic.Expr.zero
            ~cond:(Symbolic.Cond.Lt (se "count", Symbolic.Expr.int 5))
            ~update:(Symbolic.Expr.add (se "i") Symbolic.Expr.one)
            ~body_label:"bump" ~after_label:"after"
        in
        let st = Graph.state g body in
        ignore
          (Builder.Build.mapped_tasklet g st ~label:"inc"
             ~inputs:[ ("c", Memlet.simple "count" "") ]
             ~code:"o = c + 1.0"
             ~outputs:[ ("o", Memlet.simple "count" "") ]
             ());
        let o = run g ~symbols:[] ~inputs:[ ("count", [| 0. |]) ] in
        Alcotest.check farr "stopped at 5" [| 5. |] (buf o "count"));
    Alcotest.test_case "negative step loop" `Quick (fun () ->
        let g = Graph.create "down" in
        Graph.add_array g "x" Dtype.F64 [ Symbolic.Expr.int 6 ];
        let s0 = Graph.add_state g "init" in
        let _, body, _ =
          Builder.Build.for_loop g ~entry_from:s0 ~var:"i" ~init:(Symbolic.Expr.int 4)
            ~cond:(Symbolic.Cond.Ge (se "i", Symbolic.Expr.one))
            ~update:(Symbolic.Expr.sub (se "i") Symbolic.Expr.one)
            ~body_label:"mark" ~after_label:"after"
        in
        let st = Graph.state g body in
        ignore
          (Builder.Build.mapped_tasklet g st ~label:"mark"
             ~inputs:[ ("v", Memlet.simple "x" "i") ]
             ~code:"o = v + i"
             ~outputs:[ ("o", Memlet.simple "x" "i") ]
             ());
        let o = run g ~symbols:[] ~inputs:[ ("x", Array.make 6 0.) ] in
        Alcotest.check farr "marked 4..1" [| 0.; 1.; 2.; 3.; 4.; 0. |] (buf o "x"));
  ]

let coverage_tests =
  [
    Alcotest.test_case "coverage reflects select outcomes" `Quick (fun () ->
        let g = Workloads.Npbench.crc_mix () in
        let cfg = { Interp.Exec.default_config with collect_coverage = true } in
        let run_with x =
          (run ~config:cfg g ~symbols:[ ("N", 4) ] ~inputs:[ ("x", x); ("bits", Array.make 4 0.); ("count", [| 0. |]) ]).coverage
        in
        let all_low = run_with (Array.make 4 0.) in
        let mixed = run_with [| 0.; 1.; 0.; 1. |] in
        Alcotest.(check bool) "mixed covers more" true
          (List.length mixed > List.length all_low));
    Alcotest.test_case "coverage off yields empty" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let o = run g ~symbols:[ ("N", 2) ] ~inputs:[ ("x", [| 1.; 2. |]); ("a", [| 1. |]) ] in
        Alcotest.(check (list int)) "empty" [] o.coverage);
    Alcotest.test_case "steps grow with problem size" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let steps n =
          (run g ~symbols:[ ("N", n) ] ~inputs:[ ("x", Array.make n 1.); ("a", [| 1. |]) ]).steps
        in
        Alcotest.(check bool) "monotone" true (steps 16 > steps 4));
  ]

let extra_tests =
  [
    Alcotest.test_case "batched matmul library node" `Quick (fun () ->
        let g = Graph.create "bmm" in
        let i2 = Symbolic.Expr.int 2 and i3 = Symbolic.Expr.int 3 in
        Graph.add_array g "A" Dtype.F64 [ i2; i2; i3 ];
        Graph.add_array g "B" Dtype.F64 [ i2; i3; i2 ];
        Graph.add_array g "C" Dtype.F64 [ i2; i2; i2 ];
        let st = Graph.state g (Graph.add_state g "s") in
        ignore
          (Builder.Build.library g st ~label:"bmm" ~kind:Node.Batched_mat_mul
             ~inputs:
               [ ("A", Builder.Build.mem "A" "0:1, 0:1, 0:2"); ("B", Builder.Build.mem "B" "0:1, 0:2, 0:1") ]
             ~outputs:[ ("C", Builder.Build.mem "C" "0:1, 0:1, 0:1") ]
             ());
        let a = Array.init 12 (fun i -> float_of_int (i + 1)) in
        let b = Array.init 12 (fun i -> float_of_int (12 - i)) in
        let o = run g ~symbols:[] ~inputs:[ ("A", a); ("B", b); ("C", Array.make 8 0.) ] in
        (* reference batch 0, element (0,0): sum_k a[0,0,k] * b[0,k,0] *)
        let expect00 = (1. *. 12.) +. (2. *. 10.) +. (3. *. 8.) in
        Alcotest.(check (float 1e-9)) "C[0,0,0]" expect00 (buf o "C").(0));
    Alcotest.test_case "multiplicative WCR accumulates a product" `Quick (fun () ->
        let g = Graph.create "prod" in
        Graph.add_symbol g "N";
        Graph.add_array g "x" Dtype.F64 [ se "N" ];
        Graph.add_scalar g "p" Dtype.F64;
        let st = Graph.state g (Graph.add_state g "s") in
        ignore
          (Builder.Build.mapped_tasklet g st ~label:"prod"
             ~map:[ ("i", "0:N-1") ]
             ~inputs:[ ("v", Memlet.simple "x" "i") ]
             ~code:"o = v"
             ~outputs:[ ("o", Memlet.simple ~wcr:Memlet.Wcr_mul "p" "") ]
             ());
        let o = run g ~symbols:[ ("N", 4) ] ~inputs:[ ("x", [| 2.; 3.; 0.5; 4. |]); ("p", [| 1. |]) ] in
        Alcotest.check farr "p" [| 12. |] (buf o "p"));
    Alcotest.test_case "gpu-scheduled scope executes on device twins" `Quick (fun () ->
        let g = Graph.create "dev" in
        Graph.add_symbol g "N";
        Graph.add_array g "x" Dtype.F64 [ se "N" ];
        Graph.add_array g "y" Dtype.F64 [ se "N" ];
        List.iter
          (fun c -> Graph.add_array g ~transient:true ~storage:Graph.Gpu c Dtype.F64 [ se "N" ])
          [ "xg"; "yg" ];
        let st = Graph.state g (Graph.add_state g "s") in
        let xh, xg = Builder.Build.copy g st ~src:"x" ~dst:"xg" () in
        ignore xh;
        let m =
          Builder.Build.mapped_tasklet g st ~label:"k" ~schedule:Node.Gpu_device
            ~map:[ ("i", "0:N-1") ]
            ~inputs:[ ("v", Memlet.simple "xg" "i") ]
            ~code:"o = v + 1.0"
            ~outputs:[ ("o", Memlet.simple "yg" "i") ]
            ~input_nodes:[ ("xg", xg) ]
            ()
        in
        ignore
          (Builder.Build.copy g st ~src:"yg" ~dst:"y"
             ~src_node:(List.assoc "yg" m.out_access) ());
        let o = run g ~symbols:[ ("N", 3) ] ~inputs:[ ("x", [| 1.; 2.; 3. |]) ] in
        Alcotest.check farr "y" [| 2.; 3.; 4. |] (buf o "y"));
    Alcotest.test_case "f32 array storage loses double precision" `Quick (fun () ->
        let g = Graph.create "f32" in
        Graph.add_array g "x" Dtype.F64 [ Symbolic.Expr.int 1 ];
        Graph.add_array g "y" Dtype.F32 [ Symbolic.Expr.int 1 ];
        let st = Graph.state g (Graph.add_state g "s") in
        ignore
          (Builder.Build.mapped_tasklet g st ~label:"t"
             ~inputs:[ ("v", Memlet.simple "x" "0") ]
             ~code:"o = v"
             ~outputs:[ ("o", Memlet.simple "y" "0") ]
             ());
        let o = run g ~symbols:[] ~inputs:[ ("x", [| 0.1 |]) ] in
        Alcotest.(check bool) "rounded" true ((buf o "y").(0) <> 0.1));
    Alcotest.test_case "strided copy moves every other element" `Quick (fun () ->
        let g = Graph.create "stride" in
        Graph.add_array g "a" Dtype.F64 [ Symbolic.Expr.int 8 ];
        Graph.add_array g "b" Dtype.F64 [ Symbolic.Expr.int 4 ];
        let st = Graph.state g (Graph.add_state g "s") in
        ignore
          (Builder.Build.copy g st ~src:"a" ~dst:"b"
             ~src_subset:(Symbolic.Subset.of_string "0:7:2")
             ~dst_subset:(Symbolic.Subset.of_string "0:3")
             ());
        let o = run g ~symbols:[] ~inputs:[ ("a", Array.init 8 float_of_int) ] in
        Alcotest.check farr "b" [| 0.; 2.; 4.; 6. |] (buf o "b"));
  ]

(* Regression: coverage keys used to be hashed with [Hashtbl.hash], whose
   default traversal bounds make distinct structured keys collide; the FNV-1a
   digest in Defs must keep every realistic key distinct. *)
let digest_tests =
  [
    Alcotest.test_case "cov_digest is injective over realistic keys" `Quick (fun () ->
        let keys = ref [] in
        for state = 0 to 40 do
          keys := Interp.Defs.Cov_state state :: !keys;
          keys := Interp.Defs.Cov_iedge state :: !keys;
          for node = 0 to 40 do
            List.iter
              (fun empty -> keys := Interp.Defs.Cov_map { state; node; empty } :: !keys)
              [ false; true ];
            List.iter
              (fun taken ->
                keys := Interp.Defs.Cov_select { state; node; site = node mod 7; taken } :: !keys)
              [ false; true ]
          done
        done;
        let digests = List.map Interp.Defs.cov_digest !keys in
        let tbl = Hashtbl.create (List.length digests) in
        List.iter2
          (fun k d ->
            match Hashtbl.find_opt tbl d with
            | Some _ -> Alcotest.fail "cov_digest collision between distinct keys"
            | None -> Hashtbl.add tbl d k)
          !keys digests);
    Alcotest.test_case "distinct key kinds with equal ids stay distinct" `Quick (fun () ->
        let d1 = Interp.Defs.cov_digest (Interp.Defs.Cov_state 3) in
        let d2 = Interp.Defs.cov_digest (Interp.Defs.Cov_iedge 3) in
        Alcotest.(check bool) "state vs iedge" true (d1 <> d2));
  ]

(* Regression: interstate-edge assignments used to evaluate for free — a
   symbol-churning control loop could spin forever below the step budget. *)
let budget_tests =
  let spin_graph () =
    let g = Graph.create "spin" in
    Graph.add_symbol g "i";
    Graph.add_array g "x" Dtype.F64 [ Symbolic.Expr.int 1 ];
    let s = Graph.add_state g "loop" in
    Graph.set_start_state g s;
    ignore
      (Graph.add_istate_edge g
         ~cond:(Symbolic.Cond.Lt (se "i", Symbolic.Expr.int 100))
         ~assigns:[ ("i", Symbolic.Expr.Add (se "i", Symbolic.Expr.int 1)) ]
         s s);
    g
  in
  [
    Alcotest.test_case "interstate assignments consume steps" `Quick (fun () ->
        let o = run (spin_graph ()) ~symbols:[ ("i", 0) ] ~inputs:[] in
        (* 101 state executions plus 100 assignment evaluations *)
        Alcotest.(check int) "steps" 201 o.steps);
    Alcotest.test_case "a symbol-only loop trips the step budget" `Quick (fun () ->
        let config = { Interp.Exec.default_config with step_limit = 50 } in
        expect_fault ~config (spin_graph ()) ~symbols:[ ("i", 0) ] ~inputs:[]
          (function Interp.Exec.Hang _ -> true | _ -> false)
          "spin under budget");
  ]

(* Periodic-hang fast-forward: a loop whose counter is never incremented
   revisits the same state every trip, so the compiled tiers skip whole
   periods — and must still report the exact step count of the full run. *)
let periodic_tests =
  let spin_graph () =
    let g = Graph.create "stuck" in
    Graph.add_array g "x" Dtype.F64 [ Symbolic.Expr.int 4 ];
    Graph.add_array g "y" Dtype.F64 [ Symbolic.Expr.int 4 ];
    let s0 = Graph.add_state g "s0" in
    Graph.set_start_state g s0;
    let _, body, _ =
      Builder.Build.for_loop g ~entry_from:s0 ~var:"i" ~init:Symbolic.Expr.zero
        ~cond:(Symbolic.Cond.Lt (se "i", Symbolic.Expr.int 10))
        ~update:(se "i") ~body_label:"body" ~after_label:"after"
    in
    ignore
      (Builder.Build.mapped_tasklet g (Graph.state g body) ~label:"twice"
         ~map:[ ("k", "0:3") ]
         ~inputs:[ ("v", Memlet.simple "x" "k") ]
         ~code:"o = v * 2.0"
         ~outputs:[ ("o", Memlet.simple "y" "k") ]
         ());
    g
  in
  let inputs = [ ("x", [| 1.; -0.; 2.5; Float.nan |]) ] in
  let fault = function
    | Ok _ -> "ok"
    | Error f -> Interp.Exec.fault_to_string f
  in
  let tiers config g =
    [
      ("plan", Interp.Exec.run ~config ~tier:Interp.Exec.Plan g ~symbols:[] ~inputs);
      ("kernel", Interp.Exec.run ~config ~tier:Interp.Exec.Kernel g ~symbols:[] ~inputs);
    ]
    @ Array.to_list
        (Array.mapi
           (fun l r -> (Printf.sprintf "kernel lane %d/3" l, r))
           (Interp.Exec.run_batch ~config g ~symbols:[] ~inputs:[| inputs; inputs; inputs |]))
  in
  [
    Alcotest.test_case "a stuck loop hangs after exactly step_limit + 1 steps" `Quick (fun () ->
        let g = spin_graph () in
        let config = { Interp.Exec.default_config with step_limit = 400_000 } in
        let expected = Interp.Exec.fault_to_string (Interp.Exec.Hang { steps = 400_001 }) in
        Alcotest.(check string)
          "tree" expected
          (fault (Interp.Exec.run_tree ~config g ~symbols:[] ~inputs));
        let before = Interp.Period.fast_forwards () in
        List.iter
          (fun (tier, r) -> Alcotest.(check string) tier expected (fault r))
          (tiers config g);
        Alcotest.(check bool) "fast-forwarded" true (Interp.Period.fast_forwards () > before));
    Alcotest.test_case "fault injection turns the fast-forward off" `Quick (fun () ->
        let g = spin_graph () in
        List.iter
          (fun inject ->
            let config =
              { Interp.Exec.default_config with step_limit = 400_000; inject = Some inject }
            in
            let expected = fault (Interp.Exec.run_tree ~config g ~symbols:[] ~inputs) in
            let before = Interp.Period.fast_forwards () in
            List.iter
              (fun (tier, r) ->
                Alcotest.(check string)
                  (tier ^ " under " ^ Interp.Exec.injection_to_string inject)
                  expected (fault r))
              (tiers config g);
            Alcotest.(check int)
              ("no fast-forward under " ^ Interp.Exec.injection_to_string inject)
              before (Interp.Period.fast_forwards ()))
          [
            Interp.Exec.Burn_steps { after = 1_000 };
            Interp.Exec.Flip_bit { nth_write = 3; bit = 62 };
          ]);
    Alcotest.test_case "state comparison is by float bits" `Quick (fun () ->
        let payload = Int64.float_of_bits 0x7FF0_0000_0000_0001L in
        Alcotest.(check bool) "0.0 vs -0.0" false (Interp.Period.same_bits 0.0 (-0.0));
        Alcotest.(check bool) "same NaN" true (Interp.Period.same_bits Float.nan Float.nan);
        Alcotest.(check bool) "same NaN payload" true (Interp.Period.same_bits payload payload);
        Alcotest.(check bool) "distinct NaN payloads" false
          (Interp.Period.same_bits payload Float.nan);
        Alcotest.(check bool) "arrays" false
          (Interp.Period.same_floats [| 1.; 0.0 |] [| 1.; -0.0 |]));
  ]

let () =
  Alcotest.run "interp"
    [
      ("values", value_tests);
      ("faults", fault_tests);
      ("gpu", gpu_tests);
      ("control", control_tests);
      ("coverage", coverage_tests);
      ("extra", extra_tests);
      ("digest", digest_tests);
      ("budget", budget_tests);
      ("periodic", periodic_tests);
    ]
