(** Exact fast-forward of periodic hangs, shared by {!Plan} and {!Kernel}.

    At loop-header entries the detector compares the execution state — state
    position, dynamic symbol values and bound flags, and every buffer's float
    bits — with a saved snapshot. When they match [Δ] steps apart, execution
    is periodic from there on, so {!enter} adds [k·Δ] steps with
    [k = (step_limit − steps) / Δ] and the interpreter keeps running until
    its ordinary step check raises: the resulting [Hang {steps}] is
    bit-identical to the full run's. The detector is off whenever
    [config.inject] is set, because injection plans address the nth write,
    subset or step. {!Tree} never uses it and stays the naive reference. *)

(** Bit equality of two floats: [0.0] and [-0.0] differ, identical NaN
    payloads are equal. *)
val same_bits : float -> float -> bool

(** Element-wise {!same_bits} over two arrays of equal length. *)
val same_floats : float array -> float array -> bool

(** [headers ~start succ] marks the loop headers of an interstate graph
    given as successor positions: the targets of retreating edges in a
    depth-first walk from [start] ([-1]: no start, no headers). *)
val headers : start:int -> int array array -> bool array

(** How a tier's buffers are measured, copied into and compared with their
    snapshot storage. *)
type 'b store = {
  length : 'b -> int;
  save : 'b -> float array -> unit;
  same : 'b -> float array -> bool;
}

type 'b t

(** A detector over one execution's live buffers and dynamic symbol arrays
    (read in place at every {!enter}). [None] when [config.inject] is set or
    the graph has no loop header. *)
val create :
  Defs.config ->
  'b store ->
  header:bool array ->
  bufs:'b array ->
  dvals:int array ->
  dset:bool array ->
  'b t option

(** [enter d ~pos ~steps] is called on entry to state position [pos], before
    its step is counted, and returns the step counter to continue with:
    [steps], or [steps + k·Δ] once a period has been found. *)
val enter : 'b t -> pos:int -> steps:int -> int

(** Fast-forwards performed by this process so far. *)
val fast_forwards : unit -> int
