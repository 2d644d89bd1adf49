(** Local worker pool with wall-clock deadlines, and the campaign runner
    built on it.

    A pool runs its work items in long-lived forked worker processes, so
    interpreter hangs and crashes are isolated from the campaign: a worker
    past its deadline is SIGKILLed and its item recorded as [Timed_out]; a
    worker that dies without replying makes its item [Crashed]. Either way
    the worker is reaped and, while work remains, replaced. Results travel
    back as one checksummed {!Wire} frame per item over a socketpair. *)

(** Why a supervised item produced no value. *)
type failure =
  | Timed_out of { deadline_s : float }
  | Crashed of { detail : string }

(** [supervise ~deadline_s f] runs [f ()] in a forked worker and waits:
    [Ok v] if it finished in time, [Error] otherwise. [map_pool ~j:1] over
    one thunk. *)
val supervise : deadline_s:float -> (unit -> 'a) -> ('a, failure) result

(** [map_pool ~j ~deadline_s thunks] forks [min j n] workers after [thunks]
    exists, so each inherits every thunk, and hands them thunk indices one
    at a time; a worker runs the items it is handed one after another in
    the same process. Any item past [deadline_s] has its worker killed.
    Results are in input order. A raising thunk, or one whose value cannot
    be marshalled (a closure), is [Crashed] with the exception text.
    [on_done i r] fires as each thunk settles (completion order);
    [on_start i slot] fires as each is handed to the worker in [slot]. The
    wait loop sleeps in [select] on the busy workers' sockets, bounded by
    the nearest deadline, so an idle or blocked pool does not burn a core.
    Every worker is reaped before [map_pool] returns. *)
val map_pool :
  j:int ->
  deadline_s:float ->
  ?on_start:(int -> int -> unit) ->
  ?on_done:(int -> ('a, failure) result -> unit) ->
  (unit -> 'a) array ->
  ('a, failure) result array

(** A pluggable remote execution strategy (see [Supervisor.executor]): run
    the fresh queue items on remote workers, reporting through the same
    [on_start]/[on_done] callbacks (keyed by fresh-array index) as the local
    pool, and return the indices it could not complete — those degrade to
    the local pool. *)
type remote_executor = {
  dispatch :
    items:Queue.item array ->
    config:Fuzzyflow.Difftest.config ->
    static_gate:bool ->
    certify_gate:bool ->
    deadline_s:float ->
    telemetry:Telemetry.t ->
    on_start:(int -> int -> unit) ->
    on_done:(int -> (Fuzzyflow.Campaign.instance_result, failure) result -> unit) ->
    int list;
}

(** How the difftest trial loop's batch width is chosen for the campaign. *)
type batching =
  | Inherit  (** keep [config.batch] as passed (default 1: serial plan path) *)
  | Fixed of int  (** force this width (clamped to at least 1) *)
  | Auto  (** derive from the per-instance trial budget ({!auto_batch}) *)

(** The [Auto] policy: wide enough to amortize instruction dispatch over the
    instance's trial budget, capped at 64 so one sweep's buffers stay
    cache-resident. *)
val auto_batch : trials:int -> int

type options = {
  j : int;  (** worker pool size *)
  deadline_s : float;  (** per-instance wall-clock budget *)
  journal_path : string option;  (** None: no journaling (and no resume) *)
  resume : bool;  (** skip instances already in the journal *)
  corpus_dir : string option;  (** save failing cases here, deduplicated *)
  progress : bool;  (** live telemetry on stderr *)
  limit_per : int option;
  static_gate : bool;
  certify_gate : bool;
  remote : remote_executor option;
      (** run fresh instances on remote workers first; unfinished work falls
          back to the local pool with the [degraded] telemetry flag set *)
  journal_sink : (string -> unit) option;
      (** observes every journal line as it is flushed (streaming clients,
          chaos hooks); fires even when [journal_path] is [None] *)
  on_telemetry : (Telemetry.t -> unit) option;
      (** receives the live telemetry handle once, before execution starts
          (the service's HTTP endpoint reads it) *)
  batching : batching;
      (** batch-width policy for the trial loop; the resolved width travels
          inside the per-instance config to local and remote
          workers alike, and journals stay byte-identical at every width *)
}

val default_options : options

(** Run a campaign through the engine: enumerate the queue, execute every
    instance not already journaled in pool workers (each keeps one plan and
    kernel cache across the instances it runs), journal outcomes in
    queue order (so same-seed reruns are bit-identical and an interrupted
    journal is a clean prefix), persist failing cases to the corpus, and
    assemble the Table 2 summary from engine outcomes.

    Verdicts are identical for any [j], any remote worker topology — and the
    serial {!Fuzzyflow.Campaign.run} — because per-instance seeds derive
    from the campaign seed and instance identity only.

    @raise Journal.Corrupt on resume from a journal with mid-file (non-tail)
    corruption; a torn tail is truncated and counted in the footer instead. *)
val run_campaign :
  ?options:options ->
  ?config:Fuzzyflow.Difftest.config ->
  ?catalog:Transforms.Xform.t list ->
  (string * Sdfg.Graph.t) list ->
  Transforms.Xform.t list ->
  Fuzzyflow.Campaign.t
