open Fuzzyflow

type failure = Timed_out of { deadline_s : float } | Crashed of { detail : string }

(* ---------------- the local pool ---------------- *)

(* [j] long-lived worker processes, forked after the thunk array exists so
   each inherits every thunk. The parent sends a thunk index as a [Wire]
   frame over a socketpair; the worker runs it and replies with one
   checksummed frame holding the marshalled [(value, exception text)
   result]. A worker's death closes its socket, so the parent's whole wait
   loop is one [select] over the busy sockets, bounded by the nearest
   deadline. *)

type worker = {
  pid : int;
  fd : Unix.file_descr;  (** the parent's end of the socketpair *)
  slot : int;
  mutable job : int;  (** thunk index in flight, -1 when idle *)
  mutable started : float;
}

(* Every pool socket end this process holds. A forked worker closes all of
   them but its own, so no process keeps another worker's socket open (its
   death would otherwise never read as EOF) — including the workers of a
   pool nested inside a worker. *)
let held = ref []

let close_held fd =
  held := List.filter (fun f -> f <> fd) !held;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* The worker side: serve indices until the parent closes the socket. A
   result that cannot be marshalled (it holds a closure) becomes that
   thunk's error, and the worker carries on. *)
let serve thunks fd =
  let rec loop () =
    let i = int_of_string (Wire.read_frame fd) in
    let r = try Ok (thunks.(i) ()) with e -> Error (Printexc.to_string e) in
    let payload =
      try Marshal.to_string r []
      with e ->
        Marshal.to_string
          (Error ("worker result cannot be marshalled: " ^ Printexc.to_string e)
            : (unit, string) result)
          []
    in
    Wire.write_frame fd payload;
    loop ()
  in
  loop ()

let spawn thunks slot =
  let p, c = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* leave only through _exit: never run the parent's at_exit handlers
         or flush its duplicated channel buffers (an open journal among
         them); EOF from the parent ends the serve loop *)
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) (p :: !held);
      held := [ c ];
      (try serve thunks c with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close c;
      held := p :: !held;
      { pid; fd = p; slot; job = -1; started = 0. }
  | exception e ->
      Unix.close p;
      Unix.close c;
      raise e

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

let crash_detail = function
  | Unix.WEXITED 0 -> "worker exited without reporting a result"
  | Unix.WEXITED n -> Printf.sprintf "worker exited with code %d" n
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Printf.sprintf "worker killed by signal %d" s

let kill pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let map_pool ~j ~deadline_s ?(on_start = fun _ _ -> ()) ?(on_done = fun _ _ -> ()) thunks =
  let n = Array.length thunks in
  let results = Array.make n None in
  let settled = ref 0 in
  let next = ref 0 in
  let workers = ref [] in
  (* a write to a worker that just died must fail with EPIPE, not kill us *)
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () ->
      (* close every socket first so idle workers exit together; a worker
         still busy (an exception escaped a callback) is killed *)
      List.iter
        (fun w ->
          close_held w.fd;
          if w.job >= 0 then kill w.pid)
        !workers;
      List.iter (fun w -> ignore (reap w.pid)) !workers;
      Sys.set_signal Sys.sigpipe prev_sigpipe)
  @@ fun () ->
  let settle w r =
    let i = w.job in
    w.job <- -1;
    results.(i) <- Some r;
    incr settled;
    on_done i r
  in
  (* a worker gone with its job: reap it, and replace it while unassigned
     work remains *)
  let lose w failure =
    workers := List.filter (fun w' -> w' != w) !workers;
    close_held w.fd;
    let status = reap w.pid in
    settle w (Error (failure status));
    if !next < n then workers := spawn thunks w.slot :: !workers
  in
  workers := List.init (min (max 1 j) n) (spawn thunks);
  while !settled < n do
    List.iter
      (fun w ->
        if w.job < 0 && !next < n then begin
          w.job <- !next;
          w.started <- Unix.gettimeofday ();
          incr next;
          (* a worker that died idle fails this write; its EOF settles the job *)
          (try Wire.write_frame w.fd (string_of_int w.job) with Wire.Closed -> ());
          on_start w.job w.slot
        end)
      !workers;
    let busy = List.filter (fun w -> w.job >= 0) !workers in
    let nearest =
      List.fold_left (fun acc w -> Float.min acc (w.started +. deadline_s)) infinity busy
    in
    let ready =
      let tmo = Float.max 0. (nearest -. Unix.gettimeofday ()) in
      match Unix.select (List.map (fun w -> w.fd) busy) [] [] tmo with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    let now = Unix.gettimeofday () in
    List.iter
      (fun w ->
        if List.mem w.fd ready then
          (* the worker writes its whole frame at once: read it to the end *)
          match Wire.read_frame ~timeout_s:deadline_s w.fd with
          | payload -> (
              match (Marshal.from_string payload 0 : (_, string) result) with
              | Ok v -> settle w (Ok v)
              | Error detail -> settle w (Error (Crashed { detail })))
          | exception Wire.Closed -> lose w (fun st -> Crashed { detail = crash_detail st })
          | exception (Wire.Timeout | Wire.Protocol_error _ | Wire.Bad_version _) ->
              kill w.pid;
              lose w (fun _ -> Crashed { detail = "worker sent a corrupt result frame" })
        else if now -. w.started >= deadline_s then begin
          kill w.pid;
          lose w (fun _ -> Timed_out { deadline_s })
        end)
      busy
  done;
  Array.map Option.get results

let supervise ~deadline_s f = (map_pool ~j:1 ~deadline_s [| f |]).(0)

(* ---------------- the campaign driver ---------------- *)

(* A remote execution strategy, plugged in by [Supervisor.executor]: run the
   fresh items on remote workers, report through the same on_start/on_done
   callbacks as the local pool, and return the indices it could NOT complete
   (every remote worker dead or quarantined) for the local-pool fallback.
   Defined here as plain data so [Worker] never depends on the supervisor. *)
type remote_executor = {
  dispatch :
    items:Queue.item array ->
    config:Difftest.config ->
    static_gate:bool ->
    certify_gate:bool ->
    deadline_s:float ->
    telemetry:Telemetry.t ->
    on_start:(int -> int -> unit) ->
    on_done:(int -> (Campaign.instance_result, failure) result -> unit) ->
    int list;
}

(* How the trial loop's batch width is chosen. [Auto] derives it from the
   per-instance trial budget: wide enough to amortize instruction dispatch,
   capped so one sweep's buffers stay cache-resident. *)
type batching = Inherit | Fixed of int | Auto

let auto_batch ~trials = min 64 (max 1 trials)

type options = {
  j : int;
  deadline_s : float;
  journal_path : string option;
  resume : bool;
  corpus_dir : string option;
  progress : bool;
  limit_per : int option;
  static_gate : bool;
  certify_gate : bool;
  remote : remote_executor option;
  journal_sink : (string -> unit) option;
  on_telemetry : (Telemetry.t -> unit) option;
  batching : batching;
}

let default_options =
  {
    j = 1;
    deadline_s = 60.;
    journal_path = None;
    resume = false;
    corpus_dir = None;
    progress = false;
    limit_per = None;
    static_gate = false;
    certify_gate = false;
    remote = None;
    journal_sink = None;
    on_telemetry = None;
    batching = Inherit;
  }

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let killed_outcome ~(item : Queue.item) ~status ~elapsed_s =
  Campaign.killed_outcome ~program:item.program_name ~xform:item.xform.Transforms.Xform.name
    ~site:item.site ~seed:item.seed ~status ~elapsed_s

let run_campaign ?(options = default_options) ?(config = Difftest.default_config) ?catalog
    programs xforms =
  let catalog = match catalog with Some c -> c | None -> xforms in
  (* resolve the batch width once: it flows into local workers and remote
     assignments alike through the one config value, and verdicts are
     width-oblivious, so this cannot perturb journals *)
  let config =
    match options.batching with
    | Inherit -> config
    | Fixed b -> { config with Difftest.batch = max 1 b }
    | Auto -> { config with Difftest.batch = auto_batch ~trials:config.Difftest.trials }
  in
  let items =
    Array.of_list (Queue.build ~limit_per:options.limit_per ~seed:config.Difftest.seed programs xforms)
  in
  let n = Array.length items in
  (* --resume: journaled outcomes are replayed, not re-fuzzed. A torn tail
     record (campaign killed mid-write) is truncated and counted; mid-file
     corruption raises [Journal.Corrupt] — resuming from it would silently
     skip or re-run work. *)
  let resumed_map, recovered_records =
    if options.resume then
      match options.journal_path with
      | Some path ->
          let { Journal.records; recovered_records } =
            Journal.load_resume
              ~warn:(fun msg -> Printf.eprintf "engine: resume: %s\n%!" msg)
              path
          in
          (match Journal.header_of records with
          | Some h when h.Journal.seed <> config.Difftest.seed ->
              invalid_arg
                (Printf.sprintf
                   "engine: journal %s was written with --seed %d; this campaign runs with %d"
                   path h.Journal.seed config.Difftest.seed)
          | _ -> ());
          (Journal.completed records, recovered_records)
      | None -> ([], 0)
    else ([], 0)
  in
  let outcomes : Campaign.outcome option array = Array.make n None in
  let from_journal = Array.make n false in
  Array.iteri
    (fun i (it : Queue.item) ->
      match List.assoc_opt it.id resumed_map with
      | Some o ->
          outcomes.(i) <- Some o;
          from_journal.(i) <- true
      | None -> ())
    items;
  (* the journal is rewritten from scratch even on resume: parsed outcomes are
     re-emitted in queue order, so the file is always a clean, deterministic
     prefix of the campaign (a torn tail from a kill never accumulates) *)
  let sink line = match options.journal_sink with Some f -> f line | None -> () in
  let journal_oc =
    match options.journal_path with
    | None -> None
    | Some path ->
        (match Filename.dirname path with "." -> () | d -> mkdir_p d);
        Some (open_out path)
  in
  let emit_line line =
    (match journal_oc with
    | Some oc ->
        output_string oc line;
        output_char oc '\n'
    | None -> ());
    sink line
  in
  (match (journal_oc, options.journal_sink) with
  | None, None -> ()
  | _ ->
      emit_line
        (Journal.header_line
           {
             Journal.seed = config.Difftest.seed;
             trials = config.Difftest.trials;
             j = options.j;
             deadline_s = options.deadline_s;
             programs = List.map fst programs;
             xforms = List.map (fun (x : Transforms.Xform.t) -> x.name) xforms;
           });
      (match journal_oc with Some oc -> flush oc | None -> ()));
  let next_flush = ref 0 in
  let flush_journal () =
    if journal_oc <> None || options.journal_sink <> None then begin
      while !next_flush < n && outcomes.(!next_flush) <> None do
        (match outcomes.(!next_flush) with
        | Some o -> emit_line (Journal.instance_line o)
        | None -> ());
        incr next_flush
      done;
      match journal_oc with Some oc -> flush oc | None -> ()
    end
  in
  let telemetry = Telemetry.create ~progress:options.progress ~total:n ~j:options.j () in
  Telemetry.recovered_records telemetry recovered_records;
  (match options.on_telemetry with Some f -> f telemetry | None -> ());
  Array.iteri (fun i resumed -> if resumed then begin ignore i; Telemetry.resumed telemetry end) from_journal;
  flush_journal ();
  (* fresh work: everything the journal did not cover *)
  let fresh_idx = ref [] in
  Array.iteri (fun i o -> if o = None then fresh_idx := i :: !fresh_idx) outcomes;
  let fresh = Array.of_list (List.rev !fresh_idx) in
  let results : (int * Campaign.instance_result) list ref = ref [] in
  (* one plan/kernel cache per worker process, forced inside the worker:
     compiled plans hold closures, which never cross the result channel, and
     verdicts are cache-oblivious, so sharing the cache across the instances
     one worker runs cannot perturb the journal *)
  let caches =
    lazy (Interp.Plan.Cache.create ~capacity:256 (), Interp.Kernel.Cache.create ~capacity:256 ())
  in
  let thunk_of fi =
    let it = items.(fresh.(fi)) in
    fun () ->
      let config = { config with Difftest.seed = it.Queue.seed } in
      let plan_cache, kernel_cache = Lazy.force caches in
      Campaign.run_instance ~plan_cache ~kernel_cache ~config ~static_gate:options.static_gate
        ~certify_gate:options.certify_gate
        ~program:(it.program_name, it.program)
        it.xform it.site
  in
  let slot_of = Hashtbl.create 16 in
  let on_start fi slot =
    let it = items.(fresh.(fi)) in
    Hashtbl.replace slot_of fi slot;
    Telemetry.running telemetry ~slot it.Queue.id
  in
  let on_done fi result =
    let i = fresh.(fi) in
    let it = items.(i) in
    (match Hashtbl.find_opt slot_of fi with
    | Some slot -> Telemetry.idle telemetry ~slot
    | None -> ());
    let o =
      match result with
      | Ok (ir : Campaign.instance_result) ->
          results := (i, ir) :: !results;
          Campaign.outcome_of_result ~seed:it.Queue.seed ir
      | Error (Timed_out { deadline_s }) ->
          killed_outcome ~item:it ~status:(Campaign.Timed_out { deadline_s })
            ~elapsed_s:deadline_s
      | Error (Crashed { detail }) ->
          killed_outcome ~item:it ~status:(Campaign.Crashed { detail }) ~elapsed_s:0.
    in
    outcomes.(i) <- Some o;
    (* persist the failing instance's reproduction bundle *)
    (match (options.corpus_dir, result) with
    | Some dir, Ok (ir : Campaign.instance_result) -> (
        match ir.report with
        | Some ({ Difftest.verdict = Difftest.Fail f; _ } as report) -> (
            let config = { config with Difftest.seed = it.Queue.seed } in
            match Testcase.of_report ~config ~original:it.program report with
            | Some tc -> (
                match
                  Corpus.save ~dir ~catalog ~program:it.program_name
                    ~xform:it.xform.Transforms.Xform.name ~klass:f.Difftest.klass ~site:it.site
                    tc
                with
                | Corpus.Saved _ -> Telemetry.case_saved telemetry
                | Corpus.Duplicate _ | Corpus.Not_reproducing -> ())
            | None -> ())
        | _ -> ())
    | _ -> ());
    Telemetry.record telemetry o;
    flush_journal ()
  in
  let run_local fis =
    ignore
      (map_pool ~j:options.j ~deadline_s:options.deadline_s
         ~on_start:(fun k slot -> on_start fis.(k) slot)
         ~on_done:(fun k r -> on_done fis.(k) r)
         (Array.map thunk_of fis))
  in
  (match options.remote with
  | None -> run_local (Array.init (Array.length fresh) Fun.id)
  | Some r ->
      (* remote dispatch reports through the same callbacks as the local
         pool; whatever it could not complete (every worker dead or
         quarantined) degrades to the local pool — a campaign never
         hangs or loses an instance because its workers died *)
      let leftovers =
        r.dispatch
          ~items:(Array.map (fun i -> items.(i)) fresh)
          ~config ~static_gate:options.static_gate ~certify_gate:options.certify_gate
          ~deadline_s:options.deadline_s ~telemetry ~on_start ~on_done
      in
      if leftovers <> [] then begin
        Telemetry.set_degraded telemetry;
        run_local (Array.of_list leftovers)
      end);
  flush_journal ();
  (if journal_oc <> None || options.journal_sink <> None then
     emit_line (Journal.footer_line (Telemetry.summary telemetry)));
  (match journal_oc with Some oc -> close_out oc | None -> ());
  if options.progress then Telemetry.finish telemetry;
  let all_outcomes = Array.to_list outcomes |> List.filter_map (fun o -> o) in
  let results = List.sort compare (List.map fst !results) |> List.map (fun i -> List.assoc i !results) in
  Campaign.assemble ~results xforms all_outcomes
