type exec_status =
  | Completed
  | Timed_out of { deadline_s : float }
  | Crashed of { detail : string }

let status_name = function
  | Completed -> "completed"
  | Timed_out _ -> "timeout"
  | Crashed _ -> "crash"

type instance_result = {
  program : string;
  xform_name : string;
  site : Transforms.Xform.site;
  report : Difftest.report option;
  static : Analysis.Report.finding list;
  dep_stats : Analysis.Races.stats;
  verdict : Analysis.Equiv.verdict option;
}

type outcome_verdict =
  | O_passed
  | O_proved
  | O_failed of { klass : Difftest.failure_class; first_trial : int; failing_trials : int }
  | O_killed

type outcome = {
  o_program : string;
  o_xform : string;
  o_site : Transforms.Xform.site;
  o_status : exec_status;
  o_verdict : outcome_verdict;
  o_trials_run : int;
  o_static_flagged : bool;
  o_dep_pairs : int;
  o_dep_decided : int;
  o_dep_sampled : int;
  o_elapsed_s : float;
  o_seed : int;
}

type row = {
  xform_name : string;
  instances : int;
  passed : int;
  proved : int;
  failed : int;
  killed : int;
  static_flagged : int;
  classes : (Difftest.failure_class * int) list;
  avg_first_trial : float;
}

type t = {
  rows : row list;
  results : instance_result list;
  outcomes : outcome list;
  total_instances : int;
  total_failed : int;
  total_proved : int;
  total_killed : int;
}

let take n l =
  let rec go i = function [] -> [] | x :: r -> if i >= n then [] else x :: go (i + 1) r in
  go 0 l

(* ---------------- deterministic per-instance identity ---------------- *)

let instance_id ~program ~xform site =
  program ^ "::" ^ xform ^ "::" ^ Transforms.Xform.site_slug site

(* FNV-1a over the instance id mixed with the campaign seed: scheduling-order
   independent, so a parallel run and a serial run fuzz every instance with
   the same trial sequence. *)
let instance_seed ~global id =
  let h = ref 0x811c9dc5 in
  let mix c =
    h := !h lxor Char.code c;
    h := !h * 0x01000193 land 0x3FFFFFFF
  in
  String.iter mix (string_of_int global);
  mix ':';
  String.iter mix id;
  (* keep clear of 0: some PRNGs degenerate on a zero seed *)
  1 + (!h land 0x3FFFFFFF)

(* ---------------- per-instance execution ---------------- *)

let run_instance ?plan_cache ?kernel_cache ?(config = Difftest.default_config)
    ?(static_gate = false) ?(certify_gate = false) ~program:(pname, g) (x : Transforms.Xform.t)
    site =
  (* translation validation first: a proved-equivalent instance skips all its
     fuzz trials (report = None) *)
  let verdict =
    if certify_gate then Analysis.Equiv.certify ~symbols:config.Difftest.concretization g x site
    else None
  in
  let report =
    match verdict with
    | Some (Analysis.Equiv.Equivalent _) -> None
    | _ -> Some (Difftest.test_instance ?plan_cache ?kernel_cache ~config g x site)
  in
  (* second evidence channel: what the static oracle would have said about
     this instance, independent of the fuzz verdict — the change-set audit
     (declaration honesty) alongside the delta oracle (introduced defects) *)
  let static, dep_stats =
    if static_gate then
      let audit = Option.value ~default:[] (Analysis.Audit.check_xform g x site) in
      let delta, stats =
        match Analysis.Delta.verify_stats ~symbols:config.Difftest.concretization g x site with
        | Some (fs, st) -> (fs, st)
        | None -> ([], Analysis.Races.stats_zero)
      in
      (Analysis.Report.sort (audit @ delta), stats)
    else ([], Analysis.Races.stats_zero)
  in
  { program = pname; xform_name = x.name; site; report; static; dep_stats; verdict }

let outcome_of_result ?(status = Completed) ?(seed = 0) ?(elapsed_s = 0.) (r : instance_result) =
  let verdict =
    match (r.verdict, r.report) with
    | Some (Analysis.Equiv.Equivalent _), _ -> O_proved
    | _, Some { Difftest.verdict = Difftest.Fail f; _ } ->
        O_failed { klass = f.klass; first_trial = f.first_trial; failing_trials = f.failing_trials }
    | _, Some { Difftest.verdict = Difftest.Pass; _ } -> O_passed
    | _, None -> O_passed
  in
  let trials, elapsed =
    match r.report with
    | Some rep -> (rep.Difftest.trials_run, rep.Difftest.elapsed_s)
    | None -> (0, elapsed_s)
  in
  {
    o_program = r.program;
    o_xform = r.xform_name;
    o_site = r.site;
    o_status = status;
    o_verdict = verdict;
    o_trials_run = trials;
    o_static_flagged = r.static <> [];
    o_dep_pairs = r.dep_stats.Analysis.Races.pairs;
    o_dep_decided = r.dep_stats.Analysis.Races.exact_disjoint + r.dep_stats.Analysis.Races.exact_overlap;
    o_dep_sampled = r.dep_stats.Analysis.Races.sampled;
    o_elapsed_s = elapsed;
    o_seed = seed;
  }

(* ---------------- aggregation ---------------- *)

let is_killed o = match o.o_status with Completed -> false | _ -> true

let assemble ?(results = []) (xforms : Transforms.Xform.t list) outcomes =
  let rows =
    List.map
      (fun (x : Transforms.Xform.t) ->
        let mine = List.filter (fun o -> o.o_xform = x.name) outcomes in
        let failing =
          List.filter_map
            (fun o ->
              match o.o_verdict with
              | O_failed { klass; first_trial; _ } -> Some (klass, first_trial)
              | _ -> None)
            mine
        in
        let count klass = List.length (List.filter (fun (k, _) -> k = klass) failing) in
        let classes =
          List.filter
            (fun (_, n) -> n > 0)
            [
              (Difftest.Semantics, count Difftest.Semantics);
              (Difftest.Input_dependent, count Difftest.Input_dependent);
              (Difftest.Invalid_code, count Difftest.Invalid_code);
            ]
        in
        let real_failures = List.filter (fun (_, ft) -> ft > 0) failing in
        let avg_first_trial =
          match real_failures with
          | [] -> 0.
          | fs ->
              List.fold_left (fun a (_, ft) -> a +. float_of_int ft) 0. fs
              /. float_of_int (List.length fs)
        in
        let proved =
          List.length (List.filter (fun o -> o.o_verdict = O_proved) mine)
        in
        let killed = List.length (List.filter is_killed mine) in
        {
          xform_name = x.name;
          instances = List.length mine;
          passed = List.length mine - List.length failing - proved - killed;
          proved;
          failed = List.length failing;
          killed;
          static_flagged = List.length (List.filter (fun o -> o.o_static_flagged) mine);
          classes;
          avg_first_trial;
        })
      xforms
  in
  let failed =
    List.length
      (List.filter (fun o -> match o.o_verdict with O_failed _ -> true | _ -> false) outcomes)
  in
  let killed = List.length (List.filter is_killed outcomes) in
  {
    rows;
    results;
    outcomes;
    total_instances = List.length outcomes;
    (* a killed instance is a campaign failure too: the transformation (or the
       harness under it) hung or crashed instead of producing a verdict *)
    total_failed = failed + killed;
    total_proved = List.length (List.filter (fun o -> o.o_verdict = O_proved) outcomes);
    total_killed = killed;
  }

let trials_spent t = List.fold_left (fun acc o -> acc + o.o_trials_run) 0 t.outcomes

let killed_outcome ~program ~xform ~site ~seed ~status ~elapsed_s =
  {
    o_program = program;
    o_xform = xform;
    o_site = site;
    o_status = status;
    o_verdict = O_killed;
    o_trials_run = 0;
    o_static_flagged = false;
    o_dep_pairs = 0;
    o_dep_decided = 0;
    o_dep_sampled = 0;
    o_elapsed_s = elapsed_s;
    o_seed = seed;
  }

let run ?(config = Difftest.default_config) ?(limit_per = None) ?(static_gate = false)
    ?(certify_gate = false) programs xforms =
  let results = ref [] in
  let outcomes = ref [] in
  (* one plan cache for the whole serial campaign: many instances of the same
     transformation share cutouts (and always share symbol valuations drawn
     from the same constraint ranges), so compiled plans are reused across
     instances, not just across trials *)
  let plan_cache = Interp.Plan.Cache.create ~capacity:256 () in
  List.iter
    (fun (x : Transforms.Xform.t) ->
      List.iter
        (fun (pname, g) ->
          let sites = x.find g in
          let sites = match limit_per with Some n -> take n sites | None -> sites in
          List.iter
            (fun site ->
              let id = instance_id ~program:pname ~xform:x.name site in
              let seed = instance_seed ~global:config.Difftest.seed id in
              let config = { config with Difftest.seed } in
              let outcome =
                match
                  run_instance ~plan_cache ~config ~static_gate ~certify_gate ~program:(pname, g)
                    x site
                with
                | r ->
                    results := r :: !results;
                    outcome_of_result ~seed r
                | exception e ->
                    (* an exception escaping one instance is that instance's
                       outcome, as a crashed engine worker's is; the campaign
                       goes on with the next instance *)
                    killed_outcome ~program:pname ~xform:x.name ~site ~seed
                      ~status:(Crashed { detail = Printexc.to_string e })
                      ~elapsed_s:0.
              in
              outcomes := outcome :: !outcomes)
            sites)
        programs)
    xforms;
  assemble ~results:(List.rev !results) xforms (List.rev !outcomes)

let class_marker = function
  | Difftest.Semantics -> "X"
  | Difftest.Input_dependent -> "/!\\"
  | Difftest.Invalid_code -> "->"

let to_table t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-42s %10s %8s %8s %8s %7s %7s  %s\n" "Transformation" "Instances" "Passed"
       "Proved" "Failed" "Killed" "Static" "Failure classes");
  Buffer.add_string buf (String.make 113 '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      let classes =
        if r.classes = [] then "-"
        else
          String.concat ", "
            (List.map (fun (c, n) -> Printf.sprintf "%s x%d" (class_marker c) n) r.classes)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-42s %10d %8d %8d %8d %7d %7d  %s\n" r.xform_name r.instances r.passed
           r.proved r.failed r.killed r.static_flagged classes))
    t.rows;
  Buffer.add_string buf (String.make 113 '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf
       "total: %d instances tested, %d failing (%d hung/crashed), %d proved equivalent\n"
       t.total_instances t.total_failed t.total_killed t.total_proved);
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 t.outcomes in
  let pairs = sum (fun o -> o.o_dep_pairs) in
  if pairs > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "static evidence: %d access pairs, %d decided exactly, %d sampled\n"
         pairs
         (sum (fun o -> o.o_dep_decided))
         (sum (fun o -> o.o_dep_sampled)));
  Buffer.contents buf
