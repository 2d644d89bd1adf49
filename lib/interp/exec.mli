(** SDFG interpreter.

    Replaces DaCe's C++ code generation for this repository: runs a graph to
    completion over concrete symbol values and input arrays, producing the
    final memory image, an execution-coverage set (for coverage-guided
    fuzzing, Sec. 5.1) and precise fault signals — out-of-bounds accesses,
    step-limit "hangs" and invalid-graph conditions — that differential
    testing classifies (Sec. 5).

    Execution has three tiers, all with bit-identical observable semantics:

    - {!tier.Tree} — the reference tree-walk ({!Tree}), re-deriving all
      structure per run; the differential baseline.
    - {!tier.Plan} — compile-once closure plans ({!Plan}); the default.
    - {!tier.Kernel} — batched imperative kernels ({!Kernel}): plans lowered
      one level further to a flat instruction array over [Bigarray] buffers
      carrying a batch axis, so one sweep evaluates N input sets
      structure-of-arrays style ({!run_batch}).

    [run] is the one-shot interface: it lowers the graph for the selected
    tier and runs it once. Loops that execute the same graph many times (the
    difftest trial loop, the fuzzer) should instead compile once — a
    {!Plan.Cache} or {!Kernel.Cache} — and call [execute] /
    [execute_batch] per trial. *)

type fault = Defs.fault =
  | Out_of_bounds of { container : string; index : int array; shape : int array; context : string }
  | Hang of { steps : int }  (** step limit exceeded *)
  | Invalid_graph of string  (** the "generates invalid code" failure class *)
  | Runtime_error of string

val pp_fault : Format.formatter -> fault -> unit
val fault_to_string : fault -> string

(** Deterministic fault injection (faultlab level 1). A plan names an
    execution-order site — the nth container write, the nth concretized
    memlet subset, a step count — not a graph location, so the same plan
    injects at the same place on every run of a program over the same
    inputs. The self-validation campaign uses these to prove the
    differential tester catches interpreter-level corruption. *)
type injection = Defs.injection =
  | Flip_bit of { nth_write : int; bit : int }
      (** XOR IEEE-754 bit [bit] into the first value of write [nth_write] *)
  | Set_nan of { nth_write : int }  (** write a NaN instead *)
  | Set_inf of { nth_write : int }  (** write +inf instead *)
  | Shift_index of { nth_subset : int; delta : int }
      (** shift the first dimension of the nth concretized memlet subset by
          [delta] elements (an off-by-[delta] index computation); scalar
          subsets carry no index computation and are not counted *)
  | Burn_steps of { after : int }
      (** once [after] steps have run, burn the remaining step budget so the
          run surfaces as a {!fault.Hang} *)

val injection_to_string : injection -> string

type config = Defs.config = {
  step_limit : int;
      (** abort as a hang beyond this many execution steps. The plan and
          kernel tiers skip whole periods of a loop that revisits the same
          state ({!Period}), so a periodic hang costs a few periods rather
          than [step_limit] steps, yet reports the exact [Hang {steps}] of
          the full run. The tree-walk always runs every step. *)
  garbage_seed : int;  (** seed for deterministic GPU garbage allocation *)
  collect_coverage : bool;
  inject : injection option;  (** deterministic fault to inject, if any *)
}

val default_config : config

type outcome = Defs.outcome = {
  memory : Value.t;  (** final contents of every container *)
  coverage : int list;  (** sorted coverage-point digests *)
  steps : int;  (** total execution steps consumed *)
  writes : int;  (** container write operations performed (injection sites) *)
  subsets : int;  (** dimensioned memlet subsets concretized (injection sites) *)
}

(** Which execution machinery runs the graph. All three produce bit-identical
    outcomes; they differ only in throughput. *)
type tier = Tree | Plan | Kernel

(** [run g ~symbols ~inputs] validates and executes [g] on [tier] (default
    [Plan]). All free symbols must be bound in [symbols]. [inputs]
    initializes non-transient containers; missing ones are zero-filled, and
    each provided array must match the concretized element count. *)
val run :
  ?config:config ->
  ?tier:tier ->
  Sdfg.Graph.t ->
  symbols:(string * int) list ->
  inputs:(string * float array) list ->
  (outcome, fault) result

(** The reference tree-walk interpreter: identical observable semantics to
    {!run}, re-deriving all structure per run. Kept as the differential
    baseline and the slow side of [bench interp]. *)
val run_tree :
  ?config:config ->
  Sdfg.Graph.t ->
  symbols:(string * int) list ->
  inputs:(string * float array) list ->
  (outcome, fault) result

(** One-shot batched execution on the kernel tier: compile once, then run
    every element of [inputs] as one lane of a single batched sweep. Result
    [i] is bit-identical to [run ~tier:Kernel] over [inputs.(i)] (a compile
    failure is replicated to every lane). Trial loops should prefer a
    {!Kernel.Cache} plus {!Kernel.execute_batch}. *)
val run_batch :
  ?config:config ->
  Sdfg.Graph.t ->
  symbols:(string * int) list ->
  inputs:(string * float array) list array ->
  (outcome, fault) result array
