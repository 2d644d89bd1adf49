(** Batched imperative kernels — the third execution tier.

    [compile] lowers a graph plus a symbol valuation one level further than
    {!Plan}: tasklet code becomes a flat typed instruction array over integer
    register slots, memlet subsets become pre-resolved offset vectors, and
    every container lives in one [Bigarray] buffer carrying an extra batch
    axis (element-major, lane-minor: element [e] of lane [l] sits at
    [e * nlanes + l]). One sweep over the instruction stream evaluates N
    input sets structure-of-arrays style.

    The contract is the same as {!Plan}'s, per lane: [execute_batch] lane [l]
    is bit-identical — outcome, final memory, step counts, injection
    counters, per-lane coverage digests (FNV-1a, folded in sorted order) and
    fault messages — to a width-1 run over lane [l]'s inputs, which is in
    turn bit-identical to {!Plan.execute} and {!Tree.run}. The batch executes
    all lanes in lockstep and falls back to per-lane width-1 replay whenever
    any lane faults or lane-dependent data reaches control flow, addressing
    or a counter, so the fast path only ever completes uniform, fault-free
    batches. test/test_kernel.ml holds the differential obligation. *)

type t

val compile : Sdfg.Graph.t -> symbols:(string * int) list -> (t, Defs.fault) result

(** Single-trial execution: semantically {!Plan.execute} on the kernel tier. *)
val execute :
  ?config:Defs.config -> t -> inputs:(string * float array) list ->
  (Defs.outcome, Defs.fault) result

(** [execute_batch t ~inputs] runs one sweep over [Array.length inputs]
    lanes; result [i] is the outcome of lane [i]'s inputs. Missing containers
    are zero-filled per lane exactly as in a single-trial run. Both entry
    points fast-forward periodic hangs as {!Plan.execute} does (a batch is
    periodic when all its lanes are), with the same exact step counts
    against [config.step_limit]. *)
val execute_batch :
  ?config:Defs.config -> t -> inputs:(string * float array) list array ->
  (Defs.outcome, Defs.fault) result array

(** Memoizes compiled kernels by (graph digest, sorted symbol valuation),
    with the same bounded wholesale-drop policy as {!Plan.Cache}. *)
module Cache : sig
  type kernel = t
  type t

  val create : ?capacity:int -> unit -> t

  (** Digest of the graph's canonical serialization (same construction as
      {!Plan.Cache.digest_of}, so one digest can key both caches). *)
  val digest_of : Sdfg.Graph.t -> string

  val compile :
    ?digest:string -> t -> Sdfg.Graph.t -> symbols:(string * int) list ->
    (kernel, Defs.fault) result

  (** [(hits, misses)] since creation. *)
  val stats : t -> int * int
end
