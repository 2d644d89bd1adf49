(* The four workloads: what each runs, its set-up, one measured pass, the
   traced replay and the verdict checks. A run's work is fixed by the
   workload and the seed: every pass re-runs the same instances under the
   same per-instance seeds, from fresh plan/kernel caches. *)

open Fuzzyflow
module Journal = Engine.Journal

type spec = {
  name : string;
  config : Difftest.config;  (** per-instance seeds are derived from [config.seed] *)
  static_gate : bool;
  certify_gate : bool;
  engine : bool;  (** run the pass through [Engine.Worker.run_campaign -j 1] *)
  passes : int;
  setup_reps : int;
}

let base_config ~seed =
  {
    Difftest.default_config with
    trials = 20;
    seed;
    max_size = 12;
    concretization = [ ("N", 8); ("T", 3) ];
  }

let names = [ "registry"; "certify_static"; "deep_fuzz"; "generated_dataflow" ]

let spec ~seed name =
  let base = base_config ~seed in
  let s =
    {
      name;
      config = base;
      static_gate = false;
      certify_gate = false;
      engine = false;
      passes = 1;
      setup_reps = 200;
    }
  in
  match name with
  | "registry" -> Some s
  | "certify_static" ->
      Some { s with config = { base with trials = 4 }; static_gate = true; certify_gate = true }
  | "deep_fuzz" ->
      Some
        {
          s with
          config =
            {
              base with
              trials = 2048;
              max_size = 24;
              batch = Engine.Worker.auto_batch ~trials:2048;
            };
          passes = 5;
          setup_reps = 5000;
        }
  | "generated_dataflow" -> Some { s with engine = true; passes = 3; setup_reps = 5 }
  | _ -> None

(* ---------------- set-up ---------------- *)

type setup = {
  programs : (string * Sdfg.Graph.t) list;
  xforms : Transforms.Xform.t list;
  items : Engine.Queue.item array;  (** in the engine's queue order *)
  generated : int;  (** candidates the generator produced (0 off [generated_dataflow]) *)
  admitted : int;
}

let registry_programs () =
  Workloads.Npbench.all () @ Workloads.Npb_frontend.all ()
  @ [
      ("bert", Workloads.Bert.build ());
      ("cloudsc", Workloads.Cloudsc.build ());
      ("fig4", Workloads.Fig4.build ());
      ("sddmm", (let g, _, _ = Workloads.Sddmm.rank_program () in g));
    ]

let deep_programs () =
  Workloads.Npbench.
    [
      ("scale", scale ());
      ("axpy", axpy ());
      ("gemm", gemm ());
      ("mvt", mvt ());
      ("softmax", softmax ());
      ("fig4", Workloads.Fig4.build ());
    ]

let generated_styles = [ "fusion"; "gpu"; "reduce" ]
let generated_per_style = 40

(* The generated corpus is one fixed set of programs (1352 instances); the
   run's seed drives the fuzzing, as on the other workloads. Regenerating
   per seed changed the instance count by ±5% and the work with it. *)
let generator_seed = 1

let setup tr spec =
  let seed = spec.config.seed in
  let programs, generated, admitted =
    match spec.name with
    | "deep_fuzz" -> (Trace.span tr "workloads.build" deep_programs, 0, 0)
    | "generated_dataflow" ->
        List.fold_left
          (fun (ps, gen, adm) style_name ->
            let style = Option.get (Gen.Styles.by_name style_name) in
            let cands, (st : Gen.Admit.stats) =
              Trace.span tr "gen.admit" (fun () ->
                  Gen.Admit.batch ~style ~seed:generator_seed ~n:generated_per_style ())
            in
            ( ps @ List.map (fun (c : Gen.Generate.t) -> (c.name, c.graph)) cands,
              gen + st.generated,
              adm + st.admitted ))
          ([], 0, 0) generated_styles
    | _ -> (Trace.span tr "workloads.build" registry_programs, 0, 0)
  in
  let xforms = Transforms.Registry.as_shipped () in
  (* enumeration's cost is the transformations' [find] calls *)
  let items =
    Trace.span tr "transforms.find" (fun () -> Engine.Queue.build ~seed programs xforms)
  in
  { programs; xforms; items = Array.of_list items; generated; admitted }

(* ---------------- one pass ---------------- *)

(* An exception escaping an instance is a harness error, recorded exactly as
   the engine records a crashed worker so the two journals compare. *)
let crashed (it : Engine.Queue.item) detail =
  {
    Campaign.o_program = it.program_name;
    o_xform = it.xform.name;
    o_site = it.site;
    o_status = Campaign.Crashed { detail };
    o_verdict = Campaign.O_killed;
    o_trials_run = 0;
    o_static_flagged = false;
    o_dep_pairs = 0;
    o_dep_decided = 0;
    o_dep_sampled = 0;
    o_elapsed_s = 0.;
    o_seed = it.seed;
  }

let caches () = (Interp.Plan.Cache.create ~capacity:256 (), Interp.Kernel.Cache.create ())

(** Run every instance in process through [Campaign.run_instance]. *)
let run_in_process spec setup =
  let plan_cache, kernel_cache = caches () in
  Array.map
    (fun (it : Engine.Queue.item) ->
      let config = { spec.config with Difftest.seed = it.seed } in
      match
        Campaign.run_instance ~plan_cache ~kernel_cache ~config ~static_gate:spec.static_gate
          ~certify_gate:spec.certify_gate ~program:(it.program_name, it.program) it.xform it.site
      with
      | r -> Campaign.outcome_of_result ~seed:it.seed r
      | exception e -> crashed it (Printexc.to_string e))
    setup.items

let is_instance_line l = String.length l > 19 && String.sub l 0 19 = "{\"type\":\"instance\","

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = go [] in
  close_in ic;
  lines

(** The engine path: [-j 1], journal on, one forked worker per instance.
    Returns the journal's instance lines. *)
let run_engine spec setup ~journal =
  let options = { Engine.Worker.default_options with j = 1; journal_path = Some journal } in
  ignore
    (Engine.Worker.run_campaign ~options ~config:spec.config setup.programs setup.xforms);
  List.filter is_instance_line (read_lines journal)

(** The traced replay of one pass ({!Replay.run_instance} per instance, in
    queue order, from fresh caches). Returns the outcomes, each instance's
    clock readings, the counters and the two caches' [(hits, misses)]. *)
let run_traced tr spec setup =
  let plan_cache, kernel_cache = caches () in
  let c = Replay.counters () in
  let times = Array.make (Array.length setup.items) (0., 0.) in
  let outcomes =
    Array.mapi
      (fun i (it : Engine.Queue.item) ->
        Trace.set_instance tr i;
        let config = { spec.config with Difftest.seed = it.seed } in
        let t0 = Host.now () in
        let o =
          match
            Trace.span tr "bench.instance" (fun () ->
                Replay.run_instance tr c ~plan_cache ~kernel_cache ~config
                  ~static_gate:spec.static_gate ~certify_gate:spec.certify_gate
                  ~program:(it.program_name, it.program) it.xform it.site)
          with
          | r -> Campaign.outcome_of_result ~seed:it.seed r
          | exception e -> crashed it (Printexc.to_string e)
        in
        times.(i) <- (t0, Host.now ());
        o)
      setup.items
  in
  Trace.set_instance tr (-1);
  (outcomes, times, c, Interp.Plan.Cache.stats plan_cache, Interp.Kernel.Cache.stats kernel_cache)

(** Journal instance lines, written to [path] inside an [engine.journal]
    span. *)
let journal_lines tr outcomes path =
  Trace.span tr "engine.journal" (fun () ->
      let oc = open_out path in
      let lines =
        Array.map
          (fun o ->
            let l = Journal.instance_line o in
            output_string oc l;
            output_char oc '\n';
            l)
          outcomes
      in
      close_out oc;
      Array.to_list lines)

(* ---------------- verdict checks ---------------- *)

let is_verdict (o : Campaign.outcome) =
  o.o_status = Campaign.Completed && o.o_verdict <> Campaign.O_killed

let is_failing (o : Campaign.outcome) =
  match o.o_verdict with Campaign.O_failed _ -> true | _ -> false

(* Correct transformations never fail; with [bugs_fail], every shipped
   bug fails at least once. *)
let check_xform_verdicts ~bugs_fail setup outcomes =
  let correct = List.map (fun (x : Transforms.Xform.t) -> x.name) (Transforms.Registry.all_correct ()) in
  List.filter_map
    (fun (x : Transforms.Xform.t) ->
      let fails = Array.exists (fun (o : Campaign.outcome) -> o.o_xform = x.name && is_failing o) outcomes in
      if List.mem x.name correct && fails then
        Some (Printf.sprintf "correct transformation %s has a failing verdict" x.name)
      else if bugs_fail && (not (List.mem x.name correct)) && not fails then
        Some (Printf.sprintf "shipped bug %s never failed" x.name)
      else None)
    setup.xforms

(* Every proved instance, fuzzed again under the registry workload's config
   and per-instance seed, must not fail. Runs outside the timed window. A
   re-fuzz that raises [Unbound_symbol] is the known concretization gap
   (registry's N and T do not bind every program's symbols): it is counted,
   since it checks nothing, and any other exception fails the check.
   Returns the errors and that count. *)
let check_proved spec setup outcomes =
  let registry = base_config ~seed:spec.config.Difftest.seed in
  let plan_cache, kernel_cache = caches () in
  let unbound = ref 0 in
  let errors =
    List.filter_map
      (fun i ->
        let it = setup.items.(i) in
        let o : Campaign.outcome = outcomes.(i) in
        if o.o_verdict <> Campaign.O_proved then None
        else
          let config = { registry with Difftest.seed = it.seed } in
          match
            Campaign.run_instance ~plan_cache ~kernel_cache ~config
              ~program:(it.program_name, it.program) it.xform it.site
          with
          | r when is_failing (Campaign.outcome_of_result r) ->
              Some (Printf.sprintf "proved instance %s fails when fuzzed" it.id)
          | _ -> None
          | exception Symbolic.Expr.Unbound_symbol _ ->
              incr unbound;
              None
          | exception e ->
              Some (Printf.sprintf "proved instance %s crashes when fuzzed: %s" it.id (Printexc.to_string e)))
      (List.init (Array.length outcomes) Fun.id)
  in
  (errors, !unbound)

let check_same_lines ~what expected actual =
  if expected = actual then []
  else
    let n = List.length expected and m = List.length actual in
    let first =
      let rec go i = function
        | a :: r, b :: s -> if a = b then go (i + 1) (r, s) else i
        | _ -> i
      in
      go 0 (expected, actual)
    in
    [ Printf.sprintf "%s: %d vs %d instance lines, first difference at line %d" what n m first ]
