(** Crash-tolerant supervision of remote campaign workers.

    The dispatcher side ({!dispatch} / {!executor}) drives a set of
    socket-connected workers through the {!Wire} protocol: connect +
    version handshake, assignment dispatch, heartbeats on idle connections,
    per-instance deadline overrun detection, and a typed failure taxonomy.
    Failures trigger retry with bounded exponential backoff whose jitter is
    derived deterministically from the per-instance FNV-1a seed; a worker
    that keeps failing is quarantined. Whatever the remote fleet could not
    finish is returned to [Worker.run_campaign] for the local-pool
    fallback, so a campaign completes with correct verdicts even if every
    remote worker dies.

    Verdict determinism survives all of it: an instance's verdict depends
    only on (instance, seed), worker-side execution compiles through a
    cache keyed by program digest and symbol valuation (cache-oblivious
    verdicts), and a requeued instance re-runs under the same seed — so any
    topology, any failure schedule, yields journals byte-identical to
    [-j 1].

    The worker side ({!serve_worker}) is the matching accept loop. *)

type endpoint = { host : string; port : int }

val endpoint_to_string : endpoint -> string

(** Parse ["host:port"] (empty host means loopback).
    @raise Invalid_argument on a malformed endpoint. *)
val endpoint_of_string : string -> endpoint

(** The typed failure taxonomy. Every worker failure is classified as one of
    these; none of them ever becomes an instance verdict — verdicts only come
    from a live worker's reply (or the local fallback). *)
type failure_class =
  | Connect_refused of { detail : string }
  | Version_mismatch of { ours : int; theirs : int }
  | Disconnected of { during : string }  (** mid-instance, idle, handshake, assign *)
  | Decode_failure of { detail : string }  (** corrupt frame or nonsense reply *)
  | Hang of { waited_s : float }  (** no progress past heartbeat/deadline+grace *)

val failure_class_name : failure_class -> string

val failure_class_detail : failure_class -> string

type policy = {
  connect_timeout_s : float;  (** connect + handshake budget *)
  heartbeat_s : float;  (** idle ping interval, and pong / frame-read budget *)
  hang_grace_s : float;  (** slack past the instance deadline before [Hang] *)
  max_failures : int;  (** consecutive failures before quarantine *)
  backoff_base_s : float;
  backoff_max_s : float;
}

val default_policy : policy

(** Observation hooks for tests and chaos probes. *)
type events = {
  on_failure : endpoint -> failure_class -> unit;
  on_quarantine : endpoint -> unit;
  on_requeue : int -> unit;
}

val null_events : events

(** [backoff_delay ~policy ~ep ~failures ~seed]: bounded exponential backoff
    with deterministic FNV-1a jitter. Exposed for tests. *)
val backoff_delay : policy:policy -> ep:endpoint -> failures:int -> seed:int -> float

(** Build the remote execution strategy for [Worker.run_campaign]'s
    [options.remote]. [tick] is polled on every dispatch iteration (the
    service's HTTP endpoint piggybacks on it). An empty worker list returns
    every item for local fallback. *)
val executor :
  ?policy:policy ->
  ?events:events ->
  ?tick:(unit -> unit) ->
  workers:endpoint list ->
  unit ->
  Worker.remote_executor

(** Bind + listen (see {!Wire.listen_on}); [port = 0] picks an ephemeral
    port, returned alongside the socket. *)
val listen_on : ?host:Unix.inet_addr -> port:int -> unit -> Unix.file_descr * int

(** Worker-side plan/kernel compilation cache, persistent across assignments
    (and, in {!serve_worker}, across sessions). Keys are cutout digest plus
    symbol valuation; per-assignment hit/miss deltas ride back in every
    [Result] frame and surface as a hit rate in dispatcher telemetry. *)
type wcache

val wcache_create : unit -> wcache

(** Cumulative [(hits, misses)] over both caches. *)
val wcache_stats : wcache -> int * int

(** Run one assignment in-process under an alarm-based deadline, compiling
    through [caches] (a fresh throwaway cache when omitted), and build the
    reply. Verdicts are cache-oblivious, so a remote verdict is byte-identical
    to a local one. Exposed for tests. *)
val run_assignment :
  ?caches:wcache -> catalog:Transforms.Xform.t list -> Wire.assignment -> Wire.message

(** The worker accept loop: handshake, then serve assignments until the peer
    disconnects; transformations are resolved by registry name in [catalog].
    [once] exits after the first connection closes (tests). Runs forever
    otherwise — fork it, or dedicate the process to it. *)
val serve_worker : ?once:bool -> catalog:Transforms.Xform.t list -> Unix.file_descr -> unit
