(* Host-speed correction.

   On a shared core the same instruction stream can take twice as long from
   one ten-second stretch to the next, and CPU time inflates with wall time,
   so neither clock alone is a stable measure of the program. The benchmark
   therefore times a fixed reference routine that calls no FuzzyFlow code,
   on the same thread, every [period_s] of wall time throughout the run
   (from a SIGALRM handler, so samples also land inside long instances).
   A measured window's slowdown comes from the trimmed mean of the
   reference's duration over the samples taken inside it, relative to the
   reference's nominal duration; dividing the window's program time by it
   gives seconds on a host running the reference at nominal speed. The
   sampling windows themselves are taken out of the program time.

   Single samples are too noisy to correct short intervals (their
   fluctuations are mostly uncorrelated with the program's), so figures are
   corrected per pass, over seconds of samples. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---------------- the reference routine ---------------- *)

let table_len = 2048
let table = Array.init table_len (fun i -> i * 1103 land (table_len - 1))
let ref_iters = 20_000

let ref_ops =
  let m = table_len - 1 in
  [|
    (fun a b -> (a + b) land m);
    (fun a b -> a lxor b land m);
    (fun a b -> ((a * 31) + b) land m);
    (fun a b -> (a - (b lsr 1)) land m);
    (fun a b -> table.(a) lxor (b land m));
    (fun a _ -> table.((a + 5) land m));
    (fun a b -> (b + table.(a)) land m);
    (fun a _ -> (a + 1) land m);
  |]

(* Shaped like the interpreter's inner loop, whose slowdown it must track:
   indirect calls through a closure table, picked by data the branch
   predictor cannot learn, over a 16 KiB table that stays in L1 like the
   small cutout buffers do. It reads but never writes its table and does
   not allocate, so every call does the same work and no minor collection
   (which would bill the program's garbage to the reference) can start
   inside a sample. *)
let reference () =
  let a = ref 1 and b = ref 3 in
  for _ = 1 to ref_iters do
    let v = ref_ops.(!a lxor (!a lsr 5) land 7) !a !b in
    b := !a;
    a := table.(v)
  done;
  !a + !b

(* Duration of one [reference ()] call that counts as nominal host speed:
   the fast regime of a 2-core x86-64 host (OCaml 5.1.1, native code). A
   constant, so corrected figures from different runs and commits compare. *)
let nominal_s = 100e-6

(* ---------------- sampling ---------------- *)

type t = {
  origin : float;
  mutable starts : float array;
  mutable ends : float array;
  mutable n : int;
  mutable in_sample : bool;
  mutable gaps : float array;
      (** set by [stop]: [gaps.(k)] is the program time before sample [k] *)
}

let record t =
  (* a signal arriving while a sample runs is dropped, so windows never nest *)
  if not t.in_sample then begin
    t.in_sample <- true;
    let s = now () in
    ignore (Sys.opaque_identity (reference ()));
    let e = now () in
    if t.n = Array.length t.starts then begin
      let grow a = Array.append a (Array.make (Array.length a) 0.) in
      t.starts <- grow t.starts;
      t.ends <- grow t.ends
    end;
    t.starts.(t.n) <- s;
    t.ends.(t.n) <- e;
    t.n <- t.n + 1;
    t.in_sample <- false
  end

let timer period = { Unix.it_interval = period; it_value = period }

let start ?(period_s = 0.01) () =
  let t =
    {
      origin = now ();
      starts = Array.make 4096 0.;
      ends = Array.make 4096 0.;
      n = 0;
      in_sample = false;
      gaps = [| 0. |];
    }
  in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> record t));
  ignore (Unix.setitimer Unix.ITIMER_REAL (timer period_s));
  t

let stop t =
  ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.));
  (* ignore rather than restore: a signal already pending must not reach a
     default disposition, which would terminate the process *)
  Sys.set_signal Sys.sigalrm Sys.Signal_ignore;
  let n = t.n in
  t.starts <- Array.sub t.starts 0 n;
  t.ends <- Array.sub t.ends 0 n;
  t.gaps <- Array.make (n + 1) 0.;
  for k = 0 to n - 1 do
    t.gaps.(k + 1) <- t.gaps.(k) +. t.starts.(k) -. if k = 0 then t.origin else t.ends.(k - 1)
  done

let samples t = t.n

(* Number of samples whose window starts at or before [x]. *)
let count_before t x =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.starts.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(** Number of samples taken in [t0, t1]. *)
let samples_in t ~t0 ~t1 = count_before t t1 - count_before t t0

(* Program time from the origin to [x]; a point inside a sampling window
   counts as that window's start. *)
let at t x =
  let j = count_before t x in
  let from = if j = 0 then t.origin else t.ends.(j - 1) in
  t.gaps.(j) +. Float.max 0. (x -. from)

(** Program time in [t0, t1] with the sampling windows taken out. *)
let busy t ~t0 ~t1 = at t t1 -. at t t0

(** Wall time the samples themselves took. *)
let sampling_s t ~t0 ~t1 = t1 -. t0 -. busy t ~t0 ~t1

(* Trimming drops samples a stray interrupt or preemption inflated (and
   the few it deflated), which would otherwise weigh far beyond their share
   of the window's time. *)
let trimmed_mean xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let cut = n / 50 in
  let sum = ref 0. in
  for i = cut to n - 1 - cut do
    sum := !sum +. a.(i)
  done;
  !sum /. float_of_int (n - (2 * cut))

(** Slowdown over [t0, t1]: the trimmed mean duration of the samples taken
    in it over [nominal_s]; 1 when no sample fell inside. *)
let factor t ~t0 ~t1 =
  let lo = count_before t t0 and hi = count_before t t1 in
  if hi <= lo then 1.
  else trimmed_mean (List.init (hi - lo) (fun i -> t.ends.(lo + i) -. t.starts.(lo + i))) /. nominal_s
