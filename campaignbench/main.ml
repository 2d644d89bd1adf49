(* The campaign benchmark: one fixed FuzzyFlow campaign per (workload, seed).

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Run from the repository root (campaignbench/run.py builds and launches
   it). With --trace 0 the campaign runs untraced and the last line of
   standard output carries the end-to-end metrics; with --trace 1 a pass is
   also replayed layer by layer under spans and the last line carries the
   per-layer metrics. The line before it holds the run's metadata. A failed
   verdict check prints its reason on standard error and exits 1 with no
   result line; bad arguments exit 2. *)

open Campaignbench
module Json = Engine.Journal.Json

let out_dir = Filename.concat "campaignbench" "_out"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("campaignbench: " ^ msg);
      exit 1)
    fmt

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " Workload.names);
      ("--seed", Arg.Int (fun s -> seed := Some s), "N  campaign seed (fixes the run's work)");
      ( "--seconds",
        Arg.Int (fun s -> seconds := Some s),
        "S  nominal run length; recorded only — the work is fixed by workload and seed" );
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1  end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let bad msg =
    prerr_endline ("campaignbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> bad ("unexpected argument " ^ a)) usage with
  | Arg.Bad msg -> bad msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some ((0 | 1) as trace) when seconds > 0 && seed >= 0 -> (
      match Workload.spec ~seed !workload with
      | Some spec -> (spec, seed, seconds, trace = 1)
      | None -> bad ("unknown workload " ^ !workload))
  | _ -> bad "--seed (>= 0), --seconds (> 0) and --trace 0|1 are required"

(* ---------------- run metadata ---------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let status_field key =
  match
    List.find_opt
      (fun l -> String.length l > String.length key && String.sub l 0 (String.length key) = key)
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  with
  | Some l -> String.trim (String.sub l (String.length key) (String.length l - String.length key))
  | None -> ""

let peak_rss_mb () =
  match String.split_on_char ' ' (status_field "VmHWM:") with
  | kb :: _ -> float_of_string kb /. 1024.
  | [] -> fail "no VmHWM in /proc/self/status"

let nproc () =
  List.length
    (List.filter
       (fun l -> String.length l > 9 && String.sub l 0 9 = "processor")
       (String.split_on_char '\n' (read_file "/proc/cpuinfo")))

(* The checkout the benchmark runs in need not be a git repository; a digest
   of lib/ identifies the measured code either way. *)
let git_rev () =
  match String.trim (read_file ".git/HEAD") with
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      try String.trim (read_file (Filename.concat ".git" r)) with Sys_error _ -> "unknown")
  | head -> head
  | exception Sys_error _ -> "none"

let source_digest () =
  let rec files d =
    Sys.readdir d |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat d f in
           if Sys.is_directory p then files p else [ p ])
  in
  Digest.to_hex
    (Digest.string (String.concat "\000" (List.map (fun p -> p ^ "\000" ^ read_file p) (files "lib"))))

(* ---------------- measurement ---------------- *)

(* CPU readings are (user, system) seconds of the process plus its reaped
   workers. *)
type window = { t0 : float; t1 : float; cpu0 : float * float; cpu1 : float * float }

let cpu_now () =
  let t = Unix.times () in
  (t.tms_utime +. t.tms_cutime, t.tms_stime +. t.tms_cstime)

let window f =
  let cpu0 = cpu_now () and t0 = Host.now () in
  let v = f () in
  let t1 = Host.now () and cpu1 = cpu_now () in
  (v, { t0; t1; cpu0; cpu1 })

let timed f =
  Gc.compact ();
  window f

type pass_figures = {
  raw_s : float;
  cor_s : float;
  cpu_raw_s : float;  (** process plus reaped workers, sampling windows taken out *)
  cpu_cor_s : float;
  factor : float;  (** the reference routine's slowdown over the pass *)
}

(* Kernel time (the engine's fork, exit and page faults: about 60% of
   generated_dataflow's CPU time, ~1% of the in-process passes') is
   corrected by the same factor as user time. Over 15 runs of
   generated_dataflow that halved the spread of the median pass time left
   by correcting the user-mode share alone (0.058 against 0.117). *)
let figures host w =
  let raw_s = Host.busy host ~t0:w.t0 ~t1:w.t1 in
  let sampling = Host.sampling_s host ~t0:w.t0 ~t1:w.t1 in
  let cpu_raw_s = fst w.cpu1 -. fst w.cpu0 -. sampling +. (snd w.cpu1 -. snd w.cpu0) in
  let factor = Host.factor host ~t0:w.t0 ~t1:w.t1 in
  { raw_s; cor_s = raw_s /. factor; cpu_raw_s; cpu_cor_s = cpu_raw_s /. factor; factor }

let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a
let ratio a b = if b = 0. then 0. else a /. b

let expected_programs (spec : Workload.spec) =
  match spec.name with
  | "deep_fuzz" -> 6
  | "generated_dataflow" -> List.length Workload.generated_styles * Workload.generated_per_style
  | _ -> 56

let () =
  let spec, seed, seconds, trace = parse_args () in
  if not (Sys.file_exists "lib" && Sys.is_directory "lib") then
    fail "run from the repository root (no lib/ here)";
  let catalog =
    match Metrics.catalog (Metrics.load "BENCHMARK.json") ~trace with
    | catalog -> catalog
    | exception (Sys_error _ | Failure _ | Not_found) -> fail "cannot read the metric lists in BENCHMARK.json"
  in
  mkdir_p out_dir;
  let host = Host.start () in
  let tr = Trace.create () in
  (* set-up: build (or generate and admit) the programs and enumerate the
     instances, many times for a steady median; traced once. One
     compaction before the phase, none between repetitions: a thousand
     back-to-back compactions made the passes that followed hold hundreds
     of MB outside the OCaml heap, and slowed them. *)
  let reps = if trace then 1 else spec.setup_reps in
  let last = ref None in
  Gc.compact ();
  let setups =
    List.init reps (fun _ ->
        let tr = if trace then tr else Trace.create () in
        (* only the last set-up is kept, so peak RSS is the campaign's *)
        last := None;
        let s, w = window (fun () -> Workload.setup tr spec) in
        last := Some s;
        w)
  in
  let setup = Option.get !last in
  if List.length setup.programs <> expected_programs spec then
    fail "%d programs set up, expected %d" (List.length setup.programs) (expected_programs spec);
  let n = Array.length setup.items in
  let journal = Filename.concat out_dir (spec.name ^ ".engine.jsonl") in
  let lines_of outcomes = Array.to_list (Array.map Engine.Journal.instance_line outcomes) in
  (* the untraced passes. The engine workload's passes yield journal lines;
     one in-process run of the same queue checks them and prices the
     dispatch. *)
  let untraced () =
    if spec.engine then
      let engine_lines, w = timed (fun () -> Workload.run_engine spec setup ~journal) in
      (None, engine_lines, w)
    else
      let outcomes, w = timed (fun () -> Workload.run_in_process spec setup) in
      (Some outcomes, lines_of outcomes, w)
  in
  let passes = List.init (if trace then 1 else spec.passes) (fun _ -> untraced ()) in
  let outcomes, inproc =
    match List.hd passes with
    | Some outcomes, _, _ -> (outcomes, None)
    | None, _, _ ->
        let outcomes, w = timed (fun () -> Workload.run_in_process spec setup) in
        (outcomes, Some w)
  in
  let lines = lines_of outcomes in
  let proved_errors, proved_unbound =
    if spec.name = "certify_static" then Workload.check_proved spec setup outcomes else ([], 0)
  in
  let errors =
    List.concat_map
      (fun (_, l, _) -> Workload.check_same_lines ~what:"pass vs in-process run" lines l)
      passes
    @
    match spec.name with
    | "registry" -> Workload.check_xform_verdicts ~bugs_fail:true setup outcomes
    | "deep_fuzz" -> Workload.check_xform_verdicts ~bugs_fail:false setup outcomes
    | "certify_static" -> proved_errors
    | _ -> []
  in
  (* the traced replay of the same instances *)
  let traced =
    if trace then begin
      let (t_outcomes, t_times, c, plan_stats, kernel_stats), w =
        timed (fun () -> Workload.run_traced tr spec setup)
      in
      let t_lines =
        Workload.journal_lines tr t_outcomes (Filename.concat out_dir (spec.name ^ ".traced.jsonl"))
      in
      let drift = List.length (List.filter Fun.id (List.map2 ( <> ) lines t_lines)) in
      Some (t_times, c, plan_stats, kernel_stats, w, drift)
    end
    else None
  in
  Host.stop host;
  let errors =
    match traced with
    | Some (_, _, _, _, _, drift) when drift > 0 ->
        errors @ [ Printf.sprintf "trace drift: %d instances differ from the untraced run" drift ]
    | _ -> errors
  in
  if errors <> [] then fail "verdict check failed:\n  %s" (String.concat "\n  " errors);
  (* ---------------- figures ---------------- *)
  let cor w = (figures host w).cor_s in
  let busy w = Host.busy host ~t0:w.t0 ~t1:w.t1 in
  let verdicts = count Workload.is_verdict outcomes in
  let failing = count Workload.is_failing outcomes in
  let errors_n = count (fun (o : Fuzzyflow.Campaign.outcome) -> o.o_status <> Fuzzyflow.Campaign.Completed) outcomes in
  let pass_figs = List.map (fun (_, _, w) -> figures host w) passes in
  let med f = Stats.median (List.map f pass_figs) in
  (* one set-up is too short to correct on its own samples: the factor
     comes from the whole set-up phase, which the workload's repetition
     count makes last over a second (100+ samples) *)
  let setup_raw = Stats.median (List.map busy setups) in
  let setup_t0 = (List.hd setups).t0 and setup_t1 = (List.nth setups (reps - 1)).t1 in
  let setup_factor = Host.factor host ~t0:setup_t0 ~t1:setup_t1 in
  let setup_cor = setup_raw /. setup_factor in
  let fverdicts = float_of_int verdicts and ffailing = float_of_int failing in
  let metrics =
    match traced with
    | None ->
        [
          ("verdicts_per_s", med (fun p -> fverdicts /. p.cor_s));
          ("failing_per_cpu_s", med (fun p -> ffailing /. p.cpu_cor_s));
          ("verdict_share", fverdicts /. float_of_int n);
          ("setup_s", setup_cor);
          ("peak_rss_mb", peak_rss_mb ());
        ]
    | Some (t_times, (c : Replay.counters), (ph, pm), (kh, km), tw, drift) ->
        (* spans and instances are corrected by the traced pass's factor *)
        let tf = Host.factor host ~t0:tw.t0 ~t1:tw.t1 in
        let dur ~t0 ~t1 = Host.busy host ~t0 ~t1 /. tf in
        let self = Trace.self_times tr ~dur in
        let s name =
          List.fold_left (fun a (k, _, v) -> if k = name then a +. v else a) 0. self
        in
        let plan_exec = s "interp.plan_exec" +. s "interp.plan_exec_hang" in
        let kernel_exec = s "interp.kernel_exec" +. s "interp.kernel_exec_hang" in
        let hang_exec = s "interp.plan_exec_hang" +. s "interp.kernel_exec_hang" in
        let inproc_s = match inproc with Some w -> cor w | None -> (List.hd pass_figs).cor_s in
        let dispatch = if spec.engine then (List.hd pass_figs).cor_s -. inproc_s else 0. in
        let busy_ms =
          Array.to_list (Array.map (fun (t0, t1) -> 1e3 *. dur ~t0 ~t1) t_times)
        in
        let tail = Stats.tail busy_ms in
        let fi = float_of_int in
        [
          ("interp.plan_exec_s", plan_exec);
          ("interp.hang_trials", fi c.hang_trials);
          ("interp.hang_exec_s", hang_exec);
          ("interp.hang_share", ratio hang_exec (plan_exec +. kernel_exec));
          ("interp.kernel_exec_s", kernel_exec);
          ("interp.lanes_per_sweep", ratio (fi c.lanes) (fi c.sweeps));
          ("core.sample_s", s "core.sample");
          ("core.compare_s", s "core.compare");
          ("interp.plan_compile_s", s "interp.plan_compile");
          ("interp.kernel_compile_s", s "interp.kernel_compile");
          ("interp.plan_cache_hit_ratio", ratio (fi ph) (fi (ph + pm)));
          ("interp.kernel_cache_hit_ratio", ratio (fi kh) (fi (kh + km)));
          ("sdfg.digest_s", s "sdfg.digest");
          ("sdfg.validate_s", s "sdfg.validate");
          ("sdfg.diff_s", s "sdfg.diff");
          ("core.cutout_s", s "core.cutout");
          ("core.min_cut_s", s "core.min_cut");
          ("core.constraints_s", s "core.constraints");
          ("core.min_cut_reduction", 1. -. ratio (fi c.input_after) (fi c.input_before));
          ("transforms.apply_s", s "transforms.apply");
          ("core.trials_run", fi c.trials_run);
          ("analysis.certify_s", s "analysis.certify");
          ("analysis.delta_s", s "analysis.delta");
          ("analysis.audit_s", s "analysis.audit");
          ("analysis.proved_ratio", ratio (fi c.proved) (fi c.certified));
          ("analysis.dep_decided_ratio", ratio (fi c.dep_decided) (fi c.dep_pairs));
          ("engine.dispatch_s", dispatch);
          ("engine.dispatch_overhead", ratio dispatch inproc_s);
          ("engine.journal_s", s "engine.journal");
          ("gen.admit_s", s "gen.admit");
          ("gen.admission_ratio", ratio (fi setup.admitted) (fi setup.generated));
          ("workloads.build_s", s "workloads.build");
          ("transforms.find_s", s "transforms.find");
          ("harness_errors", fi errors_n);
          ("harness_error_share", ratio (fi errors_n) (fi n));
          ("instance.busy_p50_ms", Stats.median busy_ms);
          ("instance.busy_tail_ms", tail.value);
          ("instance.busy_tail_pct", tail.pct);
          ("instance.busy_tail_beyond", fi tail.beyond);
          ("trace_overhead", (cor tw /. inproc_s) -. 1.);
          ("trace_drift", fi drift);
        ]
  in
  if trace then
    Trace.write_chrome tr
      ~instance_name:(fun i -> setup.items.(i).id)
      (Filename.concat out_dir (spec.name ^ ".trace.json"));
  let attempted = n * List.length passes in
  let failed = errors_n * List.length passes in
  let fnum f = Json.Num f and inum i = Json.Num (float_of_int i) in
  let meta =
    Json.Obj
      [
        ("workload", Json.Str spec.name);
        ("seed", inum seed);
        ("seconds", inum seconds);
        ("trace", Json.Bool trace);
        ("nproc", inum (nproc ()));
        ("cpus_allowed", Json.Str (status_field "Cpus_allowed_list:"));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("git_rev", Json.Str (git_rev ()));
        ("lib_digest", Json.Str (source_digest ()));
        ("programs", inum (List.length setup.programs));
        ("instances", inum n);
        ("passes", inum (List.length passes));
        ("verdicts", inum verdicts);
        ("failing", inum failing);
        ("harness_errors", inum errors_n);
        ("trials_run", inum (List.fold_left (fun a (o : Fuzzyflow.Campaign.outcome) -> a + o.o_trials_run) 0 (Array.to_list outcomes)));
        ("journal_digest", Json.Str (Digest.to_hex (Digest.string (String.concat "\n" lines))));
        ("host_samples", inum (Host.samples host));
        ("host_factor", fnum (med (fun p -> p.factor)));
        ("pass_raw_s", Json.Arr (List.map (fun p -> fnum p.raw_s) pass_figs));
        ("pass_corrected_s", Json.Arr (List.map (fun p -> fnum p.cor_s) pass_figs));
        ("pass_factor", Json.Arr (List.map (fun p -> fnum p.factor) pass_figs));
        ( "pass_spread",
          (* quartile distance over median of the corrected pass times *)
          match List.map (fun p -> p.cor_s) pass_figs with
          | _ :: _ :: _ as xs ->
              let q1, _, q3 = Stats.quartiles xs in
              fnum ((q3 -. q1) /. Stats.median xs)
          | _ -> Json.Null );
        ("raw_verdicts_per_s", fnum (med (fun p -> fverdicts /. p.raw_s)));
        ("raw_failing_per_cpu_s", fnum (med (fun p -> ffailing /. p.cpu_raw_s)));
        ("raw_setup_s", fnum setup_raw);
        ("setup_reps", inum reps);
        ("setup_factor", fnum setup_factor);
        ("setup_samples", inum (Host.samples_in host ~t0:setup_t0 ~t1:setup_t1));
        ("proved_refuzz_unbound", inum proved_unbound);
      ]
  in
  let result = Metrics.result_line catalog ~attempted ~failed metrics in
  let record = Json.to_string (Json.Obj [ ("meta", meta); ("result", Json.of_string result) ]) in
  Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 (Filename.concat out_dir "runs.jsonl")
    (fun oc -> output_string oc (record ^ "\n"));
  print_endline (Json.to_string (Json.Obj [ ("meta", meta) ]));
  print_endline result
