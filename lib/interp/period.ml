(* Exact fast-forward of periodic hangs.

   A run trapped in an interstate loop whose trips leave the execution state
   unchanged — what deleting a loop counter's update produces — repeats the
   same Δ steps until the step limit trips. The compiled tiers are
   deterministic functions of (state position, dynamic symbol values and
   their bound flags, every container's contents), so once two entries to
   the same loop header see bit-identical state Δ steps apart, every later
   trip replays that period and the verdict, [Hang {steps}], is already
   fixed. The detector then skips k = ⌊(step_limit − steps)/Δ⌋ whole periods
   by adding kΔ to the step counter, and the interpreter runs the last
   partial period itself until its ordinary tick raises. No tick inside the
   skipped periods could have raised (the counter never exceeds
   steps + kΔ ≤ step_limit there), so the fault carries the full run's step
   count exactly.

   Deliberately left out of the snapshot, because no later step reads it:
   map-parameter registers (every map sets its registers before its body
   reads them), tasklet scratch registers and Select counters (rewritten per
   invocation), the write/subset counters (read only by fault injection,
   which turns the detector off) and coverage (write-only, and a hang
   outcome carries none).

   Buffer snapshots and compares cost O(memory), so they are rationed to
   one per [quota] = 4 × (total elements) steps: the snapshot is retaken
   Brent-style at doubling step horizons until one lands inside the periodic
   regime, and every header entry in between only pays a position + dynamic
   symbol pre-check. Buffer storage is allocated once per execution, on the
   first buffer snapshot, and refilled by blits afterwards. *)

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let same_floats (a : float array) (b : float array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i =
    i >= n || (same_bits (Array.unsafe_get a i) (Array.unsafe_get b i) && go (i + 1))
  in
  go 0

(* Targets of retreating edges in a depth-first walk from [start]: every
   cycle of the interstate graph passes through at least one of them. *)
let headers ~start (succ : int array array) =
  let n = Array.length succ in
  let header = Array.make n false in
  let mark = Array.make n 0 (* 0 unvisited, 1 on the walk's stack, 2 done *) in
  let rec dfs u =
    mark.(u) <- 1;
    Array.iter
      (fun v -> if mark.(v) = 1 then header.(v) <- true else if mark.(v) = 0 then dfs v)
      succ.(u);
    mark.(u) <- 2
  in
  if start >= 0 then dfs start;
  header

type 'b store = {
  length : 'b -> int;  (* elements of one buffer *)
  save : 'b -> float array -> unit;  (* copy a buffer into its snapshot *)
  same : 'b -> float array -> bool;  (* bit-compare a buffer with its snapshot *)
}

type 'b t = {
  store : 'b store;
  bufs : 'b array;
  dvals : int array;
  dset : bool array;
  header : bool array;
  limit : int;
  quota : int;
  mutable next : int;  (* earliest step count of the next buffer snapshot or compare *)
  mutable budget : int;
  mutable horizon : int;  (* retake the snapshot once reached without a match *)
  mutable pos : int;  (* snapshot position, -1 before the first snapshot *)
  mutable at : int;  (* step count of the buffer snapshot *)
  mutable full : bool;  (* whether [s_bufs] holds the buffers of this snapshot *)
  s_dvals : int array;
  s_dset : bool array;
  mutable s_bufs : float array array;  (* [||] until the first buffer snapshot *)
}

let fired = ref 0
let fast_forwards () = !fired

let create (cfg : Defs.config) store ~header ~bufs ~dvals ~dset =
  if Option.is_some cfg.inject || not (Array.exists Fun.id header) then None
  else
    let elems = Array.fold_left (fun acc b -> acc + store.length b) 0 bufs in
    let quota = 4 * max 16 elems in
    Some
      {
        store;
        bufs;
        dvals;
        dset;
        header;
        limit = cfg.step_limit;
        quota;
        next = quota;
        budget = quota;
        horizon = 0;
        pos = -1;
        at = 0;
        full = false;
        s_dvals = Array.copy dvals;
        s_dset = Array.copy dset;
        s_bufs = [||];
      }

(* The snapshot is taken in two parts. The position and symbols are cheap
   and retaken at every horizon; the buffers are copied only once the cheap
   part has recurred, so a loop whose counter still advances never pays for
   (or allocates) a buffer copy. *)
let snapshot_syms d ~pos ~steps =
  Array.blit d.dvals 0 d.s_dvals 0 (Array.length d.dvals);
  Array.blit d.dset 0 d.s_dset 0 (Array.length d.dset);
  d.pos <- pos;
  d.full <- false;
  d.budget <- 2 * d.budget;
  d.horizon <- steps + d.budget

let snapshot_bufs d ~steps =
  if Array.length d.s_bufs = 0 then
    d.s_bufs <- Array.map (fun b -> Array.create_float (d.store.length b)) d.bufs;
  Array.iteri (fun i b -> d.store.save b d.s_bufs.(i)) d.bufs;
  d.full <- true;
  d.at <- steps

let same_syms d =
  let rec go i =
    i < 0 || (d.dvals.(i) = d.s_dvals.(i) && d.dset.(i) = d.s_dset.(i) && go (i - 1))
  in
  go (Array.length d.dvals - 1)

let same_bufs d =
  let rec go i = i < 0 || (d.store.same d.bufs.(i) d.s_bufs.(i) && go (i - 1)) in
  go (Array.length d.bufs - 1)

let enter d ~pos ~steps =
  if (not d.header.(pos)) || steps < d.next then steps
  else if d.pos < 0 || steps >= d.horizon then begin
    snapshot_syms d ~pos ~steps;
    steps
  end
  else if pos <> d.pos || not (same_syms d) then steps
  else begin
    d.next <- steps + d.quota;
    if not d.full then begin
      snapshot_bufs d ~steps;
      steps
    end
    else if not (same_bufs d) then steps
    else begin
      let delta = steps - d.at in
      d.next <- max_int;
      incr fired;
      steps + ((d.limit - steps) / delta * delta)
    end
  end
