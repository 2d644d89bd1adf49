(* Tests of the benchmark's own machinery: order statistics, the tail rule,
   the reference routine's fixed work and the result-line schema. *)

open Campaignbench
module Json = Engine.Journal.Json

let checks = ref 0

let check name cond =
  incr checks;
  if not cond then failwith ("FAILED: " ^ name)

let close a b = Float.abs (a -. b) < 1e-12

let test_order_statistics () =
  check "median odd" (Stats.median [ 3.; 1.; 2. ] = 2.);
  check "median even" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  (* reference values from Python's statistics.quantiles(xs, n=4) *)
  let q xs = Stats.quartiles xs in
  check "quartiles of two" (q [ 1.; 2. ] = (0.75, 1.5, 2.25));
  check "quartiles of three" (q [ 1.; 2.; 3. ] = (1., 2., 3.));
  let q1, q2, q3 = q [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6.; 5.; 3. ] in
  check "quartiles of ten" (close q1 1.75 && close q2 3.5 && close q3 5.25)

let test_tail_rule () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  (* 449 instances: p99 leaves 4 beyond, p95 leaves 22 *)
  let t = Stats.tail (xs 449) in
  check "tail 449 pct" (t.pct = 95. && t.beyond = 22 && t.value = 427.);
  (* 43 instances: p90 leaves 4, p75 leaves exactly 10 *)
  let t = Stats.tail (xs 43) in
  check "tail 43 pct" (t.pct = 75. && t.beyond = 10 && t.value = 33.);
  let t = Stats.tail (xs 10_000) in
  check "tail 10000 pct" (t.pct = 99.9 && t.beyond = 10);
  (* too few samples for any ladder step: report p50 with what is beyond *)
  let t = Stats.tail (xs 5) in
  check "tail fallback" (t.pct = 50. && t.beyond = 2 && t.value = 3.)

let test_reference_routine () =
  let r = Host.reference () in
  check "reference is deterministic" (List.for_all (fun _ -> Host.reference () = r) (List.init 5 Fun.id));
  (* a sample must not allocate: a minor collection inside it would bill
     the program's garbage to the reference *)
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Host.reference ()));
  let after = Gc.minor_words () in
  check "reference does not allocate" (after -. before < 16.);
  (* with no samples, corrected time is raw time *)
  let h = Host.start ~period_s:3600. () in
  let t0 = Host.now () in
  let t1 = t0 +. 0.25 in
  Host.stop h;
  check "no samples, no correction"
    (close (Host.busy h ~t0 ~t1) 0.25 && Host.factor h ~t0 ~t1 = 1.)

let test_result_line () =
  let bench = Metrics.load "../BENCHMARK.json" in
  List.iter
    (fun trace ->
      let cat = Metrics.catalog bench ~trace in
      check "catalog not empty" (cat <> []);
      let values = List.mapi (fun i (m : Metrics.metric) -> (m.name, 0.5 +. float_of_int i)) cat in
      let line = Metrics.result_line cat ~attempted:449 ~failed:113 values in
      match Json.of_string line with
      | Json.Obj kvs ->
          check "result keys" (List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ]);
          check "attempted" (Json.int (Json.field (Json.Obj kvs) "attempted") = 449);
          let metrics = Json.field (Json.Obj kvs) "metrics" in
          List.iter
            (fun (m : Metrics.metric) ->
              let v = Json.field metrics m.name in
              check ("unit of " ^ m.name) (Json.str (Json.field v "unit") = m.unit_);
              check ("value of " ^ m.name) (Json.num (Json.field v "value") = List.assoc m.name values))
            cat
      | _ -> check "result is an object" false)
    [ false; true ];
  let cat = Metrics.catalog bench ~trace:false in
  let all v = List.map (fun (m : Metrics.metric) -> (m.name, v)) cat in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check "missing metric refused" (raises (fun () -> Metrics.result_line cat ~attempted:1 ~failed:0 []));
  check "non-finite metric refused"
    (raises (fun () -> Metrics.result_line cat ~attempted:1 ~failed:0 (all Float.nan)));
  check "unknown metric refused"
    (raises (fun () -> Metrics.result_line cat ~attempted:1 ~failed:0 (("no_such", 1.) :: all 1.)))

let () =
  test_order_statistics ();
  test_tail_rule ();
  test_reference_routine ();
  test_result_line ();
  Printf.printf "campaignbench: %d checks passed\n" !checks
