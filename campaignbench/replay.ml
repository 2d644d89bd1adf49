(* The traced replay of one campaign instance.

   [run_instance] does what [Fuzzyflow.Campaign.run_instance] does — and,
   inside it, [Fuzzyflow.Difftest.test_instance] — step for step, but calls
   each layer's public entry point itself so it can put a span around the
   call. It must reach the same verdict, trial count and status as the
   untraced call; the benchmark checks that for every instance (trace drift)
   and refuses a traced run where it does not hold. *)

open Fuzzyflow

type counters = {
  mutable hang_trials : int;  (** trial executions (either side) that hit the step limit *)
  mutable sweeps : int;  (** batched kernel executions *)
  mutable lanes : int;  (** trials they carried *)
  mutable trials_run : int;
  mutable input_before : int;  (** min-cut input elements, before and after *)
  mutable input_after : int;
  mutable certified : int;  (** instances [Equiv.certify] ran on *)
  mutable proved : int;
  mutable dep_pairs : int;
  mutable dep_decided : int;
}

let counters () =
  {
    hang_trials = 0;
    sweeps = 0;
    lanes = 0;
    trials_run = 0;
    input_before = 0;
    input_after = 0;
    certified = 0;
    proved = 0;
    dep_pairs = 0;
    dep_decided = 0;
  }

let is_hang = function Error (Interp.Exec.Hang _) -> true | _ -> false

(* Difftest's trial loop: serial plans at batch 1, batched kernels above. *)
let run_trials tr c ~plan_cache ~kernel_cache ~(config : Difftest.config) ~constraints
    ~(cut : Cutout.t) ~original_prog ~transformed_prog =
  let span name f = Trace.span tr name f in
  let icfg =
    { Interp.Exec.default_config with step_limit = config.step_limit; collect_coverage = false }
  in
  let icfg_x = { icfg with Interp.Exec.inject = config.inject_transformed } in
  let compare_outs o1 o2 =
    span "core.compare" (fun () ->
        Difftest.compare_outcomes ~threshold:config.threshold ~system_state:cut.system_state o1 o2)
  in
  let verdict_of ~failures ~first =
    match first with
    | None -> Difftest.Pass
    | Some (first_trial, kind, symbols) ->
        let klass = if failures = config.trials then Difftest.Semantics else Input_dependent in
        Difftest.Fail { klass; first_trial; failing_trials = failures; kind; symbols }
  in
  (* the cost of a digest is serializing the graph (Sdfg.Serialize); the
     interp wrapper only hashes the string *)
  if config.batch <= 1 then begin
    let dig_o = span "sdfg.digest" (fun () -> Interp.Plan.Cache.digest_of original_prog) in
    let dig_x = span "sdfg.digest" (fun () -> Interp.Plan.Cache.digest_of transformed_prog) in
    let exec ~config:icfg ~digest prog ~symbols ~inputs =
      match
        span "interp.plan_compile" (fun () ->
            Interp.Plan.Cache.compile ~digest plan_cache prog ~symbols)
      with
      | Error f -> Error f
      | Ok p ->
          let r = span "interp.plan_exec" (fun () -> Interp.Plan.execute ~config:icfg p ~inputs) in
          if is_hang r then begin
            Trace.relabel_last tr "interp.plan_exec_hang";
            c.hang_trials <- c.hang_trials + 1
          end;
          r
    in
    let rng = Sampler.create config.seed in
    let failures = ref 0 and first = ref None in
    for trial = 1 to config.trials do
      let symbols, inputs =
        span "core.sample" (fun () ->
            let r = Sampler.split rng in
            let symbols = Sampler.sample_symbols r constraints in
            (symbols, Sampler.sample_inputs r constraints cut ~symbols))
      in
      let o1 = exec ~config:icfg ~digest:dig_o original_prog ~symbols ~inputs in
      let o2 = exec ~config:icfg_x ~digest:dig_x transformed_prog ~symbols ~inputs in
      match compare_outs o1 o2 with
      | None -> ()
      | Some kind ->
          incr failures;
          if !first = None then first := Some (trial, kind, symbols)
    done;
    verdict_of ~failures:!failures ~first:!first
  end
  else begin
    let dig_o = span "sdfg.digest" (fun () -> Interp.Kernel.Cache.digest_of original_prog) in
    let dig_x = span "sdfg.digest" (fun () -> Interp.Kernel.Cache.digest_of transformed_prog) in
    let rng = Sampler.create config.seed in
    let descs =
      span "core.sample" (fun () ->
          Array.init config.trials (fun _ ->
              let r = Sampler.split rng in
              let symbols = Sampler.sample_symbols r constraints in
              (symbols, Sampler.sample_inputs r constraints cut ~symbols)))
    in
    let groups : ((string * int) list, int list ref) Hashtbl.t = Hashtbl.create 8 in
    let order = ref [] in
    Array.iteri
      (fun i (symbols, _) ->
        let key = List.sort compare symbols in
        match Hashtbl.find_opt groups key with
        | Some l -> l := i :: !l
        | None ->
            Hashtbl.add groups key (ref [ i ]);
            order := key :: !order)
      descs;
    let kinds = Array.make config.trials None in
    let compile ~digest prog ~symbols =
      span "interp.kernel_compile" (fun () ->
          Interp.Kernel.Cache.compile ~digest kernel_cache prog ~symbols)
    in
    let exec ~config:icfg kres lanes inputs =
      match kres with
      | Error f -> Array.map (fun _ -> Error f) lanes
      | Ok k ->
          let outs =
            span "interp.kernel_exec" (fun () -> Interp.Kernel.execute_batch ~config:icfg k ~inputs)
          in
          c.sweeps <- c.sweeps + 1;
          c.lanes <- c.lanes + Array.length lanes;
          let hangs = Array.fold_left (fun n r -> if is_hang r then n + 1 else n) 0 outs in
          if hangs > 0 then begin
            (* a sweep runs its lanes in lockstep: the whole sweep is billed
               to the hang *)
            Trace.relabel_last tr "interp.kernel_exec_hang";
            c.hang_trials <- c.hang_trials + hangs
          end;
          outs
    in
    List.iter
      (fun key ->
        let idxs = Array.of_list (List.rev !(Hashtbl.find groups key)) in
        let symbols, _ = descs.(idxs.(0)) in
        let k_o = compile ~digest:dig_o original_prog ~symbols in
        let k_x = compile ~digest:dig_x transformed_prog ~symbols in
        let n = Array.length idxs in
        let chunk = ref 0 in
        while !chunk < n do
          let w = min config.batch (n - !chunk) in
          let lanes = Array.sub idxs !chunk w in
          let inputs = Array.map (fun i -> snd descs.(i)) lanes in
          let outs_o = exec ~config:icfg k_o lanes inputs in
          let outs_x = exec ~config:icfg_x k_x lanes inputs in
          Array.iteri (fun j i -> kinds.(i) <- compare_outs outs_o.(j) outs_x.(j)) lanes;
          chunk := !chunk + w
        done)
      (List.rev !order);
    let failures = ref 0 and first = ref None in
    Array.iteri
      (fun i kind ->
        match kind with
        | None -> ()
        | Some kind ->
            incr failures;
            if !first = None then first := Some (i + 1, kind, fst descs.(i)))
      kinds;
    verdict_of ~failures:!failures ~first:!first
  end

let apply_to_copy tr g (x : Transforms.Xform.t) site =
  Trace.span tr "transforms.apply" (fun () ->
      let g' = Sdfg.Graph.copy g in
      match x.apply g' site with
      | cs -> Ok (g', cs)
      | exception Transforms.Xform.Cannot_apply msg -> Error msg
      | exception Failure msg -> Error msg
      | exception Invalid_argument msg -> Error msg
      | exception Not_found -> Error "transformation failed with Not_found")

let invalid_report ~(x : Transforms.Xform.t) ~site ~cut msg =
  {
    Difftest.xform_name = x.name;
    site;
    verdict =
      Difftest.Fail
        {
          klass = Invalid_code;
          first_trial = 0;
          failing_trials = 0;
          kind = Invalid_transformed msg;
          symbols = [];
        };
    cutout = cut;
    min_cut_stats = None;
    shrink_stats = None;
    trials_run = 0;
    elapsed_s = 0.;
  }

let test_instance tr c ~plan_cache ~kernel_cache ~(config : Difftest.config) g
    (x : Transforms.Xform.t) site =
  let span name f = Trace.span tr name f in
  match apply_to_copy tr g x site with
  | Error msg ->
      let dummy =
        {
          Cutout.program = Sdfg.Graph.create "empty";
          kind = Cutout.Dataflow { state = -1; nodes = [] };
          input_config = [];
          system_state = [];
          free_symbols = [];
        }
      in
      invalid_report ~x ~site ~cut:dummy msg
  | Ok (transformed_whole, reported_cs) -> (
      let cs =
        if config.black_box then
          span "sdfg.diff" (fun () ->
              Sdfg.Diff.compute ~original:g ~transformed:transformed_whole)
        else reported_cs
      in
      let cut =
        span "core.cutout" (fun () ->
            Cutout.extract ~options:{ Cutout.symbols = config.concretization } g cs)
      in
      let cut, min_cut_stats =
        if config.use_min_cut then begin
          let c', (stats : Min_cut.stats) =
            span "core.min_cut" (fun () -> Min_cut.minimize g cut ~symbols:config.concretization)
          in
          c.input_before <- c.input_before + stats.original_elements;
          c.input_after <- c.input_after + stats.minimized_elements;
          (c', Some stats)
        end
        else (cut, None)
      in
      let cut, shrink_stats =
        if config.shrink then
          let c', stats =
            span "core.cutout" (fun () ->
                Cutout.shrink_containers cut ~symbols:config.concretization)
          in
          (c', Some stats)
        else (cut, None)
      in
      match apply_to_copy tr cut.program x site with
      | Error msg -> invalid_report ~x ~site ~cut msg
      | Ok (transformed, _) -> (
          match span "sdfg.validate" (fun () -> Sdfg.Validate.check transformed) with
          | e :: _ -> invalid_report ~x ~site ~cut (Format.asprintf "%a" Sdfg.Validate.pp_error e)
          | [] ->
              let original_reads, transformed_reads =
                span "core.cutout" (fun () ->
                    (Cutout.program_reads cut.program, Cutout.program_reads transformed))
              in
              let extra_inputs =
                List.filter
                  (fun name ->
                    (not (List.mem name cut.input_config))
                    && (not (List.mem name original_reads))
                    &&
                    match Sdfg.Graph.container_opt transformed name with
                    | Some d -> not d.transient
                    | None -> false)
                  transformed_reads
              in
              let cut =
                { cut with Cutout.input_config = List.sort compare (cut.input_config @ extra_inputs) }
              in
              let constraints =
                span "core.constraints" (fun () ->
                    Constraints.derive ~max_size:config.max_size ~custom:config.custom_constraints
                      ~original:g cut)
              in
              let verdict =
                run_trials tr c ~plan_cache ~kernel_cache ~config ~constraints ~cut
                  ~original_prog:cut.program ~transformed_prog:transformed
              in
              c.trials_run <- c.trials_run + config.trials;
              {
                Difftest.xform_name = x.name;
                site;
                verdict;
                cutout = cut;
                min_cut_stats;
                shrink_stats;
                trials_run = config.trials;
                elapsed_s = 0.;
              }))

(** [Campaign.run_instance], traced. *)
let run_instance tr c ~plan_cache ~kernel_cache ~(config : Difftest.config) ~static_gate
    ~certify_gate ~program:(pname, g) (x : Transforms.Xform.t) site =
  let span name f = Trace.span tr name f in
  let verdict =
    if certify_gate then begin
      c.certified <- c.certified + 1;
      span "analysis.certify" (fun () ->
          Analysis.Equiv.certify ~symbols:config.concretization g x site)
    end
    else None
  in
  let report =
    match verdict with
    | Some (Analysis.Equiv.Equivalent _) ->
        c.proved <- c.proved + 1;
        None
    | _ -> Some (test_instance tr c ~plan_cache ~kernel_cache ~config g x site)
  in
  let static, dep_stats =
    if static_gate then begin
      let audit =
        span "analysis.audit" (fun () ->
            Option.value ~default:[] (Analysis.Audit.check_xform g x site))
      in
      let delta, (stats : Analysis.Races.stats) =
        span "analysis.delta" (fun () ->
            match Analysis.Delta.verify_stats ~symbols:config.concretization g x site with
            | Some (fs, st) -> (fs, st)
            | None -> ([], Analysis.Races.stats_zero))
      in
      c.dep_pairs <- c.dep_pairs + stats.pairs;
      c.dep_decided <- c.dep_decided + stats.exact_disjoint + stats.exact_overlap;
      (Analysis.Report.sort (audit @ delta), stats)
    end
    else ([], Analysis.Races.stats_zero)
  in
  { Campaign.program = pname; xform_name = x.name; site; report; static; dep_stats; verdict }
