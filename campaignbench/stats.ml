let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's statistics.quantiles(xs, n=4) with its default "exclusive"
   method, so these quartiles match what anyone recomputes
   from the result lines. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

let tail_ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* Nearest-rank percentile of a sorted array; the epsilon keeps 99.9% of
   10000 at rank 9990 despite float rounding. *)
let rank_of ~n pct = max 1 (int_of_float (Float.ceil ((pct *. float_of_int n /. 100.) -. 1e-9)))

type tail = { pct : float; value : float; beyond : int }

let min_beyond = 10

(* The highest ladder percentile that still has at least [min_beyond]
   samples strictly past its rank; p50 when even that has fewer. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let at pct =
    let r = rank_of ~n pct in
    { pct; value = a.(r - 1); beyond = n - r }
  in
  match List.find_opt (fun p -> (at p).beyond >= min_beyond) tail_ladder with
  | Some p -> at p
  | None -> at 50.
