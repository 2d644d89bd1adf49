(* The program generator: determinism, admission, style steering. *)

open Sdfg

let styles = Gen.Styles.all

(* -- determinism -------------------------------------------------------- *)

let determinism_tests =
  [
    Alcotest.test_case "same seed, byte-identical serialization" `Quick (fun () ->
        List.iter
          (fun (style : Gen.Styles.t) ->
            for index = 0 to 9 do
              let a = Gen.Generate.candidate ~style ~seed:42 index in
              let b = Gen.Generate.candidate ~style ~seed:42 index in
              Alcotest.(check string)
                (Printf.sprintf "%s/%d" style.Gen.Styles.name index)
                (Serialize.to_string a.Gen.Generate.graph)
                (Serialize.to_string b.Gen.Generate.graph)
            done)
          styles);
    Alcotest.test_case "different seeds diverge somewhere" `Quick (fun () ->
        let img seed =
          List.map
            (fun (style : Gen.Styles.t) ->
              Serialize.to_string (Gen.Generate.candidate ~style ~seed 0).Gen.Generate.graph)
            styles
        in
        Alcotest.(check bool) "seed 1 vs 2" false (img 1 = img 2));
    Alcotest.test_case "name round-trips the (style, seed, index) triple" `Quick (fun () ->
        List.iter
          (fun (style : Gen.Styles.t) ->
            let c = Gen.Generate.candidate ~style ~seed:7 3 in
            (match Gen.Generate.parse_name c.Gen.Generate.name with
            | Some (s, seed, index) ->
                Alcotest.(check string) "style" style.Gen.Styles.name s;
                Alcotest.(check int) "seed" 7 seed;
                Alcotest.(check int) "index" 3 index
            | None -> Alcotest.fail ("unparseable: " ^ c.Gen.Generate.name));
            match Gen.Generate.by_name c.Gen.Generate.name with
            | Some c' ->
                Alcotest.(check string) "regenerated identical"
                  (Serialize.to_string c.Gen.Generate.graph)
                  (Serialize.to_string c'.Gen.Generate.graph)
            | None -> Alcotest.fail "by_name failed")
          styles);
  ]

(* -- serialization round-trip over the raw stream ------------------------ *)

let roundtrip_tests =
  [
    Alcotest.test_case "100 graphs per style survive serialize round-trip" `Slow (fun () ->
        List.iter
          (fun (style : Gen.Styles.t) ->
            for index = 0 to 99 do
              let c = Gen.Generate.candidate ~style ~seed:11 index in
              let s = Serialize.to_string c.Gen.Generate.graph in
              let s' = Serialize.to_string (Serialize.of_string s) in
              Alcotest.(check string)
                (Printf.sprintf "%s/%d" style.Gen.Styles.name index)
                s s'
            done)
          styles);
  ]

(* -- admission ----------------------------------------------------------- *)

let batch style = Gen.Admit.batch ~style ~seed:42 ~n:20 ()

let admission_tests =
  [
    Alcotest.test_case "admitted candidates have zero definite findings" `Slow (fun () ->
        List.iter
          (fun (style : Gen.Styles.t) ->
            let admitted, _ = batch style in
            List.iter
              (fun (c : Gen.Generate.t) ->
                Alcotest.(check int)
                  (c.Gen.Generate.name ^ " validates")
                  0
                  (List.length (Validate.check c.Gen.Generate.graph));
                let findings =
                  Analysis.Oracle.analyze ~symbols:(Gen.Admit.concretize c.Gen.Generate.graph)
                    c.Gen.Generate.graph
                in
                let definite =
                  List.filter
                    (fun (f : Analysis.Report.finding) ->
                      f.Analysis.Report.severity = Analysis.Report.Error)
                    findings
                in
                Alcotest.(check int) (c.Gen.Generate.name ^ " definite findings") 0
                  (List.length definite))
              admitted)
          styles);
    Alcotest.test_case "admission rate meets the 60% floor" `Slow (fun () ->
        List.iter
          (fun (style : Gen.Styles.t) ->
            let _, stats = batch style in
            let rate =
              float_of_int stats.Gen.Admit.admitted /. float_of_int stats.Gen.Admit.generated
            in
            if rate < 0.6 then
              Alcotest.failf "%s admission %.0f%% below floor" style.Gen.Styles.name
                (100. *. rate))
          styles);
    Alcotest.test_case "every style target matches on its batch" `Slow (fun () ->
        List.iter
          (fun (style : Gen.Styles.t) ->
            let admitted, _ = batch style in
            let counts =
              List.concat_map
                (fun (c : Gen.Generate.t) -> Gen.Styles.match_counts c.Gen.Generate.graph)
                admitted
            in
            List.iter
              (fun target ->
                let hits =
                  List.fold_left
                    (fun acc (n, k) -> if n = target then acc + k else acc)
                    0 counts
                in
                if hits = 0 then
                  Alcotest.failf "%s: target %s never matched" style.Gen.Styles.name target)
              style.Gen.Styles.targets)
          styles);
    Alcotest.test_case "rejections are attributable to risky rules" `Quick (fun () ->
        (* a candidate made only of benign elementwise fragments always admits *)
        let style =
          { (List.hd styles) with Gen.Styles.weights = [ (1, Gen.Grammar.Elementwise) ] }
        in
        for index = 0 to 9 do
          let c = Gen.Generate.candidate ~style ~seed:5 index in
          match Gen.Admit.check c with
          | Ok () -> ()
          | Error r ->
              Alcotest.failf "benign candidate %d rejected: %s" index
                (Gen.Admit.reject_to_string r)
        done);
  ]

let () =
  Alcotest.run "gen"
    [
      ("determinism", determinism_tests);
      ("roundtrip", roundtrip_tests);
      ("admission", admission_tests);
    ]
