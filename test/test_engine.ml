(* The campaign engine: journal round-trips, fork/deadline supervision, seed
   determinism across worker counts, resume, and the corpus regression gate. *)

open Fuzzyflow

let se = Symbolic.Expr.sym

let temp_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let config =
  { Difftest.default_config with trials = 5; max_size = 8; concretization = [ ("N", 8) ] }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let replace_once s ~from ~into =
  let n = String.length s and m = String.length from in
  let rec go i = if i + m > n then None else if String.sub s i m = from then Some i else go (i + 1) in
  match go 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ into ^ String.sub s (i + m) (n - i - m)

let good () = Transforms.Map_tiling.make ~tile_size:4 Transforms.Map_tiling.Correct
let bad () = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible

let programs () =
  [ ("scale", Workloads.Npbench.scale ()); ("axpy", Workloads.Npbench.axpy ()) ]

(* a graph whose canonical loop never exits: the step-limit-disabled cutout *)
let spin_graph () =
  let g = Sdfg.Graph.create "spin" in
  let s0 = Sdfg.Graph.add_state g "s0" in
  let _ =
    Builder.Build.for_loop g ~entry_from:s0 ~var:"i" ~init:Symbolic.Expr.zero
      ~cond:(Symbolic.Cond.Ge (se "i", Symbolic.Expr.zero))
      ~update:(Symbolic.Expr.add (se "i") Symbolic.Expr.one)
      ~body_label:"spin" ~after_label:"after"
  in
  g

(* ---------------- journal ---------------- *)

let sample_site = Transforms.Xform.dataflow_site ~state:0 ~nodes:[ 1; 3 ] ~descr:"tile \"x\""

let sample_outcome verdict status =
  {
    Campaign.o_program = "scale";
    o_xform = "MapTiling";
    o_site = sample_site;
    o_status = status;
    o_verdict = verdict;
    o_trials_run = 5;
    o_static_flagged = false;
    o_dep_pairs = 2;
    o_dep_decided = 2;
    o_dep_sampled = 0;
    o_elapsed_s = 0.;
    o_seed = 12345;
  }

let journal_tests =
  [
    Alcotest.test_case "json round-trips nesting and escapes" `Quick (fun () ->
        let open Engine.Journal.Json in
        let v =
          Obj
            [
              ("s", Str "a\"b\\c\nd\tt");
              ("n", Num 3.);
              ("f", Num 0.25);
              ("b", Bool true);
              ("z", Null);
              ("a", Arr [ Num 1.; Str "x"; Obj [ ("k", Bool false) ] ]);
            ]
        in
        Alcotest.(check bool) "round-trip" true (of_string (to_string v) = v);
        Alcotest.(check bool) "rejects garbage" true
          (match of_string "{\"a\": }" with _ -> false | exception _ -> true));
    Alcotest.test_case "every record kind round-trips through parse_line" `Quick (fun () ->
        let h =
          {
            Engine.Journal.seed = 42;
            trials = 5;
            j = 4;
            deadline_s = 30.;
            programs = [ "scale"; "axpy" ];
            xforms = [ "MapTiling" ];
          }
        in
        Alcotest.(check bool) "header" true
          (Engine.Journal.parse_line (Engine.Journal.header_line h) = Engine.Journal.Header h);
        let f =
          {
            Engine.Journal.total = 4;
            failed = 2;
            proved = 0;
            killed = 1;
            trials_spent = 15;
            wall_s = 1.5;
            instances_per_s = 2.6666;
            retries = 3;
            quarantined = 1;
            worker_lost = 2;
            degraded = true;
            recovered_records = 1;
          }
        in
        Alcotest.(check bool) "footer" true
          (Engine.Journal.parse_line (Engine.Journal.footer_line f) = Engine.Journal.Footer f);
        List.iter
          (fun o ->
            match Engine.Journal.parse_line (Engine.Journal.instance_line o) with
            | Engine.Journal.Instance o' ->
                Alcotest.(check bool) "instance" true (o' = o)
            | _ -> Alcotest.fail "not an instance record")
          [
            sample_outcome Campaign.O_passed Campaign.Completed;
            sample_outcome Campaign.O_proved Campaign.Completed;
            sample_outcome
              (Campaign.O_failed
                 { klass = Difftest.Input_dependent; first_trial = 2; failing_trials = 3 })
              Campaign.Completed;
            sample_outcome Campaign.O_killed (Campaign.Timed_out { deadline_s = 30. });
            sample_outcome Campaign.O_killed (Campaign.Crashed { detail = "signal 11" });
          ]);
    Alcotest.test_case "load drops a torn tail" `Quick (fun () ->
        let path = Filename.temp_file "ffjournal" ".jsonl" in
        let oc = open_out path in
        output_string oc
          (Engine.Journal.header_line
             {
               Engine.Journal.seed = 1;
               trials = 1;
               j = 1;
               deadline_s = 1.;
               programs = [];
               xforms = [];
             });
        output_char oc '\n';
        output_string oc
          (Engine.Journal.instance_line (sample_outcome Campaign.O_passed Campaign.Completed));
        output_char oc '\n';
        output_string oc "{\"type\":\"instance\",\"id\":\"torn";
        close_out oc;
        let records = Engine.Journal.load path in
        Sys.remove path;
        Alcotest.(check int) "two clean records" 2 (List.length records);
        Alcotest.(check int) "one completed" 1 (List.length (Engine.Journal.completed records)));
    Alcotest.test_case "load of a missing journal is empty" `Quick (fun () ->
        Alcotest.(check int) "empty" 0
          (List.length (Engine.Journal.load "/nonexistent/journal.jsonl")));
    Alcotest.test_case "a torn tail is reported through warn" `Quick (fun () ->
        let path = Filename.temp_file "ffjournal" ".jsonl" in
        let oc = open_out path in
        output_string oc
          (Engine.Journal.instance_line (sample_outcome Campaign.O_passed Campaign.Completed));
        output_char oc '\n';
        output_string oc "{\"type\":\"instance\",\"id\":\"torn-mid-wri";
        close_out oc;
        let warnings = ref [] in
        let records = Engine.Journal.load ~warn:(fun m -> warnings := m :: !warnings) path in
        Sys.remove path;
        Alcotest.(check int) "clean record kept" 1 (List.length records);
        Alcotest.(check int) "one warning" 1 (List.length !warnings);
        let w = List.hd !warnings in
        Alcotest.(check bool) "warning names the file" true (contains w path);
        Alcotest.(check bool) "warning carries the line number" true (contains w ":2:");
        Alcotest.(check bool) "warning previews the torn line" true (contains w "torn-mid-wri"));
    Alcotest.test_case "load_resume repairs a torn tail and counts the recovery" `Quick
      (fun () ->
        let path = Filename.temp_file "ffresume" ".jsonl" in
        let oc = open_out path in
        output_string oc
          (Engine.Journal.instance_line (sample_outcome Campaign.O_passed Campaign.Completed));
        output_char oc '\n';
        output_string oc
          (Engine.Journal.instance_line (sample_outcome Campaign.O_proved Campaign.Completed));
        output_char oc '\n';
        output_string oc "{\"type\":\"instance\",\"id\":\"torn";
        close_out oc;
        let loaded = Engine.Journal.load_resume path in
        Alcotest.(check int) "clean records kept" 2 (List.length loaded.Engine.Journal.records);
        Alcotest.(check int) "tear counted" 1 loaded.Engine.Journal.recovered_records;
        (* repair truncated the torn record on disk: a second load is clean *)
        let again = Engine.Journal.load_resume path in
        Sys.remove path;
        Alcotest.(check int) "repaired on disk" 0 again.Engine.Journal.recovered_records;
        Alcotest.(check int) "records stable" 2 (List.length again.Engine.Journal.records));
    Alcotest.test_case "load_resume refuses mid-file corruption with a typed error" `Quick
      (fun () ->
        let path = Filename.temp_file "ffcorrupt" ".jsonl" in
        let oc = open_out path in
        output_string oc "{\"type\":\"instance\",\"id\":\"damaged-in-place\n";
        output_string oc
          (Engine.Journal.instance_line (sample_outcome Campaign.O_passed Campaign.Completed));
        output_char oc '\n';
        close_out oc;
        (match Engine.Journal.load_resume path with
        | _ -> Alcotest.fail "mid-file corruption accepted"
        | exception Engine.Journal.Corrupt { lineno; path = p; _ } ->
            Alcotest.(check int) "corrupt line identified" 1 lineno;
            Alcotest.(check string) "path carried" path p);
        Sys.remove path);
  ]

(* ---------------- worker supervision ---------------- *)

let worker_tests =
  [
    Alcotest.test_case "supervise returns the child's value" `Quick (fun () ->
        match Engine.Worker.supervise ~deadline_s:10. (fun () -> 21 * 2) with
        | Ok v -> Alcotest.(check int) "value" 42 v
        | Error _ -> Alcotest.fail "expected Ok");
    Alcotest.test_case "child exiting without a result is Crashed, not an exception" `Quick
      (fun () ->
        match Engine.Worker.supervise ~deadline_s:10. (fun () -> Unix._exit 0) with
        | Error (Engine.Worker.Crashed { detail }) ->
            Alcotest.(check bool) "detail says no result" true
              (contains detail "without reporting")
        | Ok _ -> Alcotest.fail "expected Crashed"
        | Error (Engine.Worker.Timed_out _) -> Alcotest.fail "expected Crashed, got Timed_out");
    Alcotest.test_case "one worker runs every thunk at j = 1" `Quick (fun () ->
        let rs = Engine.Worker.map_pool ~j:1 ~deadline_s:10. (Array.make 4 Unix.getpid) in
        let pids =
          Array.map (function Ok p -> p | Error _ -> Alcotest.fail "unexpected failure") rs
        in
        Array.iter (fun p -> Alcotest.(check int) "same worker" pids.(0) p) pids;
        Alcotest.(check bool) "not the parent" true (pids.(0) <> Unix.getpid ()));
    Alcotest.test_case "a worker lost mid-pool is replaced while work remains" `Quick (fun () ->
        let rs =
          Engine.Worker.map_pool ~j:1 ~deadline_s:10.
            (Array.init 5 (fun i () -> if i = 1 then Unix._exit 3 else i))
        in
        Array.iteri
          (fun i r ->
            match (i, r) with
            | 1, Error (Engine.Worker.Crashed { detail }) ->
                Alcotest.(check string) "exit code in detail" "worker exited with code 3" detail
            | 1, _ -> Alcotest.fail "expected Crashed at index 1"
            | i, Ok v -> Alcotest.(check int) "value" i v
            | _, Error _ -> Alcotest.fail (Printf.sprintf "index %d failed" i))
          rs);
    Alcotest.test_case "an unmarshallable result is Crashed and keeps the worker" `Quick
      (fun () ->
        let rs =
          Engine.Worker.map_pool ~j:1 ~deadline_s:10.
            [|
              (fun () -> (Unix.getpid (), None));
              (fun () -> (Unix.getpid (), Some succ));
              (fun () -> (Unix.getpid (), None));
            |]
        in
        (match rs.(1) with
        | Error (Engine.Worker.Crashed { detail }) ->
            Alcotest.(check bool) "detail names marshalling" true (contains detail "marshalled")
        | _ -> Alcotest.fail "expected Crashed");
        match (rs.(0), rs.(2)) with
        | Ok (p0, _), Ok (p2, _) -> Alcotest.(check int) "same worker after the failure" p0 p2
        | _ -> Alcotest.fail "neighbours should succeed");
    Alcotest.test_case "a 16 MB result arrives within a 2 s deadline" `Quick (fun () ->
        let len = 16 * 1024 * 1024 in
        match Engine.Worker.supervise ~deadline_s:2. (fun () -> String.make len 'x') with
        | Ok s -> Alcotest.(check int) "length" len (String.length s)
        | Error (Engine.Worker.Timed_out _) -> Alcotest.fail "timed out"
        | Error (Engine.Worker.Crashed { detail }) -> Alcotest.fail ("crashed: " ^ detail));
    Alcotest.test_case "every worker is reaped when map_pool returns" `Quick (fun () ->
        (* each thunk logs its worker's pid first, so the killed and the
           crashed worker are checked too *)
        let log = Filename.temp_file "ffpool" ".pids" in
        let rs =
          Engine.Worker.map_pool ~j:2 ~deadline_s:0.5
            (Array.init 6 (fun i () ->
                 let oc = open_out_gen [ Open_append; Open_wronly ] 0o600 log in
                 Printf.fprintf oc "%d\n" (Unix.getpid ());
                 close_out oc;
                 if i = 2 then Unix.sleepf 30.;
                 if i = 4 then Unix._exit 1;
                 i))
        in
        Alcotest.(check int) "four survivors" 4
          (Array.to_list rs |> List.filter Result.is_ok |> List.length);
        let ic = open_in log in
        let pids = ref [] in
        (try
           while true do
             pids := int_of_string (input_line ic) :: !pids
           done
         with End_of_file -> close_in ic);
        Sys.remove log;
        Alcotest.(check int) "six thunks logged" 6 (List.length !pids);
        List.iter
          (fun pid ->
            match Unix.kill pid 0 with
            | () -> Alcotest.fail (Printf.sprintf "worker %d still exists" pid)
            | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ())
          (List.sort_uniq compare !pids));
    Alcotest.test_case "step-limit-disabled looping cutout is killed at the deadline" `Quick
      (fun () ->
        let g = spin_graph () in
        match
          Engine.Worker.supervise ~deadline_s:0.5 (fun () ->
              Interp.Exec.run
                ~config:{ Interp.Exec.default_config with step_limit = max_int }
                g ~symbols:[] ~inputs:[])
        with
        | Error (Engine.Worker.Timed_out { deadline_s }) ->
            Alcotest.(check (float 1e-9)) "deadline recorded" 0.5 deadline_s
        | Ok _ -> Alcotest.fail "interpreter should never finish"
        | Error (Engine.Worker.Crashed { detail }) -> Alcotest.fail ("crashed: " ^ detail));
    Alcotest.test_case "a raising child is a crash with detail" `Quick (fun () ->
        match Engine.Worker.supervise ~deadline_s:10. (fun () -> failwith "boom") with
        | Error (Engine.Worker.Crashed { detail }) ->
            Alcotest.(check bool) "mentions exception" true (contains detail "boom")
        | _ -> Alcotest.fail "expected Crashed");
    Alcotest.test_case "a child dying without reporting is a crash" `Quick (fun () ->
        match Engine.Worker.supervise ~deadline_s:10. (fun () -> Unix._exit 7) with
        | Error (Engine.Worker.Crashed _) -> ()
        | _ -> Alcotest.fail "expected Crashed");
    Alcotest.test_case "map_pool keeps input order under parallelism" `Quick (fun () ->
        let thunks =
          Array.init 6 (fun i ->
              fun () ->
                Unix.sleepf (if i mod 2 = 0 then 0.05 else 0.01);
                i * 10)
        in
        let rs = Engine.Worker.map_pool ~j:3 ~deadline_s:10. thunks in
        Array.iteri
          (fun i r ->
            match r with
            | Ok v -> Alcotest.(check int) "ordered" (i * 10) v
            | Error _ -> Alcotest.fail "unexpected failure")
          rs);
    Alcotest.test_case "sleep-waiting pool still kills close to the deadline" `Quick (fun () ->
        let t0 = Unix.gettimeofday () in
        let rs =
          Engine.Worker.map_pool ~j:2 ~deadline_s:0.5
            [|
              (fun () ->
                Unix.sleep 30;
                0);
              (fun () -> 1);
            |]
        in
        let elapsed = Unix.gettimeofday () -. t0 in
        (match rs.(0) with
        | Error (Engine.Worker.Timed_out { deadline_s }) ->
            Alcotest.(check (float 1e-9)) "deadline recorded" 0.5 deadline_s
        | _ -> Alcotest.fail "expected Timed_out");
        (match rs.(1) with
        | Ok 1 -> ()
        | _ -> Alcotest.fail "fast sibling unaffected");
        (* the wait loop sleeps in select bounded by the next worker
           deadline — overrun must stay close to the 0.5s budget, not drift
           to a polling granularity or a fixed select cap *)
        Alcotest.(check bool)
          (Printf.sprintf "killed near the deadline (%.2fs elapsed)" elapsed)
          true
          (elapsed >= 0.5 && elapsed < 1.5));
  ]

(* ---------------- engine campaigns ---------------- *)

let verdict_key (o : Campaign.outcome) =
  (o.o_program, o.o_xform, Transforms.Xform.site_slug o.o_site, o.o_verdict, o.o_seed)

let engine_tests =
  [
    Alcotest.test_case "verdicts identical for -j 1, -j 4 and the serial path" `Quick (fun () ->
        let xforms = [ good (); bad () ] in
        let run j =
          Engine.Worker.run_campaign
            ~options:{ Engine.Worker.default_options with j }
            ~config (programs ()) xforms
        in
        let c1 = run 1 and c4 = run 4 in
        let serial = Campaign.run ~config (programs ()) xforms in
        let keys c = List.map verdict_key c.Campaign.outcomes in
        Alcotest.(check bool) "j1 = j4" true (keys c1 = keys c4);
        Alcotest.(check bool) "j4 = serial" true (keys c4 = keys serial);
        Alcotest.(check int) "failures found" 2 c4.Campaign.total_failed);
    Alcotest.test_case "serial campaign records escaping exceptions like -j 2 crashes" `Quick
      (fun () ->
        (* cloudsc at N=8 T=3 leaves KLEV and KLON unbound, so most
           instances raise out of the harness instead of returning a verdict *)
        let config =
          { Difftest.default_config with trials = 4; concretization = [ ("N", 8); ("T", 3) ] }
        in
        let programs = [ ("cloudsc", Workloads.Cloudsc.build ()) ] in
        let xforms = Transforms.Registry.as_shipped () in
        let serial = Campaign.run ~config programs xforms in
        let parallel =
          Engine.Worker.run_campaign
            ~options:{ Engine.Worker.default_options with j = 2 }
            ~config programs xforms
        in
        let sites =
          List.fold_left
            (fun n (x : Transforms.Xform.t) -> n + List.length (x.find (snd (List.hd programs))))
            0 xforms
        in
        Alcotest.(check int) "every instance has an outcome" sites serial.Campaign.total_instances;
        Alcotest.(check bool) "some instances crashed" true (serial.Campaign.total_killed > 0);
        List.iter
          (fun (o : Campaign.outcome) ->
            match (o.o_verdict, o.o_status) with
            | Campaign.O_killed, Campaign.Crashed { detail } ->
                Alcotest.(check bool)
                  ("crash detail: " ^ detail)
                  true
                  (contains detail "Unbound_symbol")
            | Campaign.O_killed, _ -> Alcotest.fail "killed without a crash status"
            | _ -> ())
          serial.Campaign.outcomes;
        Alcotest.(check string)
          "serial table = -j 2 table" (Campaign.to_table parallel) (Campaign.to_table serial);
        let keys c = List.map verdict_key c.Campaign.outcomes in
        Alcotest.(check bool) "serial verdicts = -j 2 verdicts" true
          (keys serial = keys parallel));
    Alcotest.test_case "hung instance is killed and reported as an outcome" `Quick (fun () ->
        let hang =
          {
            Transforms.Xform.name = "Hang(test-only)";
            find = (fun _ -> [ Transforms.Xform.dataflow_site ~state:0 ~nodes:[ 1 ] ~descr:"hang" ]);
            apply =
              (fun _ _ ->
                while true do
                  ignore (Sys.opaque_identity ())
                done;
                { Sdfg.Diff.nodes = []; states = [] });
            certify_hint = None;
          }
        in
        let path = Filename.temp_file "ffhang" ".jsonl" in
        let c =
          Engine.Worker.run_campaign
            ~options:
              {
                Engine.Worker.default_options with
                j = 2;
                deadline_s = 0.5;
                journal_path = Some path;
              }
            ~config
            [ ("scale", Workloads.Npbench.scale ()) ]
            [ good (); hang ]
        in
        Alcotest.(check int) "one killed" 1 c.Campaign.total_killed;
        Alcotest.(check int) "killed counts as failed" 1 c.Campaign.total_failed;
        let row =
          List.find (fun (r : Campaign.row) -> r.xform_name = "Hang(test-only)") c.Campaign.rows
        in
        Alcotest.(check int) "row killed" 1 row.Campaign.killed;
        let killed_outcome =
          List.find (fun (o : Campaign.outcome) -> o.o_verdict = Campaign.O_killed)
            c.Campaign.outcomes
        in
        (match killed_outcome.Campaign.o_status with
        | Campaign.Timed_out { deadline_s } ->
            Alcotest.(check (float 1e-9)) "deadline" 0.5 deadline_s
        | _ -> Alcotest.fail "expected Timed_out status");
        (* and the journal agrees *)
        let records = Engine.Journal.load path in
        Sys.remove path;
        let journaled_killed =
          List.exists
            (function
              | Engine.Journal.Instance o -> o.Campaign.o_verdict = Campaign.O_killed
              | _ -> false)
            records
        in
        Alcotest.(check bool) "journaled as killed" true journaled_killed);
    Alcotest.test_case "resume replays journaled outcomes instead of re-fuzzing" `Quick
      (fun () ->
        let xforms = [ good (); bad () ] in
        let path = Filename.temp_file "ffresume" ".jsonl" in
        let options j =
          { Engine.Worker.default_options with j; journal_path = Some path }
        in
        let full =
          Engine.Worker.run_campaign ~options:(options 2) ~config (programs ()) xforms
        in
        let read_lines p =
          let ic = open_in p in
          let ls = ref [] in
          (try
             while true do
               ls := input_line ic :: !ls
             done
           with End_of_file -> ());
          close_in ic;
          List.rev !ls
        in
        let all_lines = read_lines path in
        let complete = List.filter (fun l -> l <> "") all_lines in
        (* interrupt after two instances — and tamper one journaled verdict so
           a re-fuzz (which would restore "pass") is detectable *)
        let truncated =
          match complete with
          | header :: i1 :: i2 :: _ ->
              let tampered =
                replace_once i1 ~from:"\"verdict\":\"pass\"" ~into:"\"verdict\":\"proved\""
              in
              [ header; tampered; i2 ]
          | _ -> Alcotest.fail "journal too short"
        in
        let oc = open_out path in
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          truncated;
        close_out oc;
        let resumed =
          Engine.Worker.run_campaign
            ~options:{ (options 2) with resume = true }
            ~config (programs ()) xforms
        in
        Sys.remove path;
        Alcotest.(check int) "all instances accounted for"
          full.Campaign.total_instances resumed.Campaign.total_instances;
        (* the tampered verdict survives: that instance was replayed from the
           journal, not re-executed *)
        Alcotest.(check int) "tampered instance not re-fuzzed" 1
          resumed.Campaign.total_proved;
        Alcotest.(check int) "fresh instances still fuzzed"
          full.Campaign.total_failed resumed.Campaign.total_failed);
    Alcotest.test_case "resume with a different seed is refused" `Quick (fun () ->
        let path = Filename.temp_file "ffseed" ".jsonl" in
        ignore
          (Engine.Worker.run_campaign
             ~options:{ Engine.Worker.default_options with journal_path = Some path }
             ~config
             [ ("scale", Workloads.Npbench.scale ()) ]
             [ good () ]);
        (match
           Engine.Worker.run_campaign
             ~options:
               { Engine.Worker.default_options with journal_path = Some path; resume = true }
             ~config:{ config with Difftest.seed = config.Difftest.seed + 1 }
             [ ("scale", Workloads.Npbench.scale ()) ]
             [ good () ]
         with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
        Sys.remove path);
    Alcotest.test_case "resume across a torn tail completes and counts the recovery" `Quick
      (fun () ->
        let xforms = [ good (); bad () ] in
        let path = Filename.temp_file "fftear" ".jsonl" in
        let options = { Engine.Worker.default_options with journal_path = Some path } in
        let full = Engine.Worker.run_campaign ~options ~config (programs ()) xforms in
        (* simulate a crash mid-append: a partial record with no newline *)
        let oc = open_out_gen [ Open_append ] 0o644 path in
        output_string oc "{\"type\":\"instance\",\"id\":\"crashed-mid-wri";
        close_out oc;
        let resumed =
          Engine.Worker.run_campaign
            ~options:{ options with resume = true }
            ~config (programs ()) xforms
        in
        Alcotest.(check int) "all instances accounted for" full.Campaign.total_instances
          resumed.Campaign.total_instances;
        Alcotest.(check int) "verdict totals preserved" full.Campaign.total_failed
          resumed.Campaign.total_failed;
        (* the repair is journaled: the resumed run's footer records it *)
        let footers =
          List.filter_map
            (function Engine.Journal.Footer f -> Some f | _ -> None)
            (Engine.Journal.load path)
        in
        Sys.remove path;
        match List.rev footers with
        | last :: _ ->
            Alcotest.(check int) "recovered record counted" 1
              last.Engine.Journal.recovered_records
        | [] -> Alcotest.fail "no footer after resume");
  ]

(* ---------------- corpus ---------------- *)

let failing_testcase () =
  let g = Workloads.Npbench.scale () in
  let x = bad () in
  let site = List.hd (x.find g) in
  let r = Difftest.test_instance ~config g x site in
  match r.Difftest.verdict with
  | Difftest.Fail f -> (
      match Testcase.of_report ~config ~original:g r with
      | Some tc -> (x, site, f.Difftest.klass, tc)
      | None -> Alcotest.fail "no test case from failing report")
  | Difftest.Pass -> Alcotest.fail "vectorization should fail on scale"

let corpus_tests =
  [
    Alcotest.test_case "save admits a reproducing case once" `Quick (fun () ->
        let dir = temp_dir "ffcorpus" in
        let x, site, klass, tc = failing_testcase () in
        let catalog = [ good (); bad () ] in
        let save () =
          Engine.Corpus.save ~dir ~catalog ~program:"scale" ~xform:x.Transforms.Xform.name
            ~klass ~site tc
        in
        (match save () with
        | Engine.Corpus.Saved _ -> ()
        | _ -> Alcotest.fail "expected Saved");
        (match save () with
        | Engine.Corpus.Duplicate _ -> ()
        | _ -> Alcotest.fail "expected Duplicate");
        let entries = Engine.Corpus.entries dir in
        Alcotest.(check int) "one entry" 1 (List.length entries);
        let m = List.hd entries in
        Alcotest.(check string) "xform recorded" x.Transforms.Xform.name
          m.Engine.Corpus.xform;
        rm_rf dir);
    Alcotest.test_case "a hang case saves and replays at the default step limit" `Quick
      (fun () ->
        (* save and replay both re-run the case at the interpreter's
           50M-step default; the periodic-hang fast-forward keeps that to a
           few periods instead of 50M interpreted steps *)
        let g = List.assoc "trisolv" (Workloads.Npb_frontend.all ()) in
        let x =
          Transforms.State_assign_elimination.make
            Transforms.State_assign_elimination.Ignore_conditions
        in
        let hang_case =
          List.find_map
            (fun site ->
              let r = Difftest.test_instance ~config g x site in
              match r.Difftest.verdict with
              | Difftest.Fail
                  ({
                     kind =
                       Difftest.Fault_divergence { transformed = Some (Interp.Exec.Hang _); _ };
                     _;
                   } as f) ->
                  Option.map
                    (fun tc -> (site, f.Difftest.klass, tc))
                    (Testcase.of_report ~config ~original:g r)
              | _ -> None)
            (x.find g)
        in
        let site, klass, tc =
          match hang_case with
          | Some c -> c
          | None -> Alcotest.fail "no hanging StateAssignElimination case on trisolv"
        in
        let dir = temp_dir "ffhang" in
        let catalog = [ x ] in
        (match
           Engine.Corpus.save ~dir ~catalog ~program:"trisolv" ~xform:x.Transforms.Xform.name
             ~klass ~site tc
         with
        | Engine.Corpus.Saved _ -> ()
        | _ -> Alcotest.fail "expected Saved");
        (match Engine.Corpus.replay ~catalog dir with
        | [ o ] ->
            Alcotest.(check bool) "reproduced" true o.Engine.Corpus.reproduced;
            Alcotest.(check bool)
              ("replay detail names the hang: " ^ o.Engine.Corpus.detail)
              true
              (contains o.Engine.Corpus.detail "hang")
        | os -> Alcotest.fail (Printf.sprintf "expected one outcome, got %d" (List.length os)));
        rm_rf dir);
    Alcotest.test_case "replay reproduces a saved failing case" `Quick (fun () ->
        let dir = temp_dir "ffreplay" in
        let x, site, klass, tc = failing_testcase () in
        let catalog = [ good (); bad () ] in
        (match
           Engine.Corpus.save ~dir ~catalog ~program:"scale" ~xform:x.Transforms.Xform.name
             ~klass ~site tc
         with
        | Engine.Corpus.Saved _ -> ()
        | _ -> Alcotest.fail "expected Saved");
        (match Engine.Corpus.replay ~catalog dir with
        | [ o ] -> Alcotest.(check bool) "reproduced" true o.Engine.Corpus.reproduced
        | os -> Alcotest.fail (Printf.sprintf "expected one outcome, got %d" (List.length os)));
        rm_rf dir);
    Alcotest.test_case "entries are sharded by signature prefix" `Quick (fun () ->
        let dir = temp_dir "ffshard" in
        let x, site, klass, tc = failing_testcase () in
        let catalog = [ good (); bad () ] in
        let entry_dir =
          match
            Engine.Corpus.save ~dir ~catalog ~program:"scale" ~xform:x.Transforms.Xform.name
              ~klass ~site tc
          with
          | Engine.Corpus.Saved d -> d
          | _ -> Alcotest.fail "expected Saved"
        in
        let sig_ = (List.hd (Engine.Corpus.entries dir)).Engine.Corpus.signature in
        let shard = String.sub sig_ 0 2 in
        Alcotest.(check string) "entry under dir/<prefix>/<signature>"
          (Filename.concat (Filename.concat dir shard) sig_)
          entry_dir;
        Alcotest.(check bool) "shard dir exists" true
          (Sys.is_directory (Filename.concat dir shard));
        rm_rf dir);
    Alcotest.test_case "legacy flat layout is read and lazily migrated" `Quick (fun () ->
        let dir = temp_dir "fflegacy" in
        let x, site, klass, tc = failing_testcase () in
        let catalog = [ good (); bad () ] in
        (match
           Engine.Corpus.save ~dir ~catalog ~program:"scale" ~xform:x.Transforms.Xform.name
             ~klass ~site tc
         with
        | Engine.Corpus.Saved _ -> ()
        | _ -> Alcotest.fail "expected Saved");
        (* demote the sharded entry to the flat layout an older version wrote *)
        let m = List.hd (Engine.Corpus.entries dir) in
        let sig_ = m.Engine.Corpus.signature in
        let shard = Filename.concat dir (String.sub sig_ 0 2) in
        Unix.rename (Filename.concat shard sig_) (Filename.concat dir sig_);
        Unix.rmdir shard;
        Alcotest.(check int) "flat entry listed" 1 (List.length (Engine.Corpus.entries dir));
        (* a duplicate save must see the flat entry, not resave it *)
        (match
           Engine.Corpus.save ~dir ~catalog ~program:"scale" ~xform:x.Transforms.Xform.name
             ~klass ~site tc
         with
        | Engine.Corpus.Duplicate _ -> ()
        | _ -> Alcotest.fail "expected Duplicate against flat entry");
        (* touching the entry migrated it into its shard *)
        Alcotest.(check bool) "entry migrated into shard" true
          (Sys.is_directory (Filename.concat shard sig_));
        Alcotest.(check bool) "flat path gone" false
          (Sys.file_exists (Filename.concat dir sig_));
        (match Engine.Corpus.replay ~catalog dir with
        | [ o ] -> Alcotest.(check bool) "replay after migration" true o.Engine.Corpus.reproduced
        | os -> Alcotest.fail (Printf.sprintf "expected one outcome, got %d" (List.length os)));
        rm_rf dir);
    Alcotest.test_case "signature ignores workload identity but not the bug" `Quick (fun () ->
        let x = bad () in
        let g = Workloads.Npbench.scale () in
        let site = List.hd (x.Transforms.Xform.find g) in
        let r = Difftest.test_instance ~config g x site in
        let cut = r.Difftest.cutout in
        let s1 = Engine.Corpus.signature ~xform:"X" ~klass:Difftest.Semantics cut in
        let s2 = Engine.Corpus.signature ~xform:"X" ~klass:Difftest.Input_dependent cut in
        let s3 = Engine.Corpus.signature ~xform:"Y" ~klass:Difftest.Semantics cut in
        Alcotest.(check bool) "class distinguishes" true (s1 <> s2);
        Alcotest.(check bool) "xform distinguishes" true (s1 <> s3);
        Alcotest.(check string) "deterministic" s1
          (Engine.Corpus.signature ~xform:"X" ~klass:Difftest.Semantics cut));
  ]

let () =
  Alcotest.run "engine"
    [
      ("journal", journal_tests);
      ("worker", worker_tests);
      ("campaign", engine_tests);
      ("corpus", corpus_tests);
    ]
