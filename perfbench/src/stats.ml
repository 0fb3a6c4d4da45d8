(* Order statistics over timing samples.  Quantiles are nearest-rank on a
   sorted copy, so a reported percentile is always a value that was actually
   measured. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of the [p]-th percentile of [n] samples; the slack
   keeps e.g. 99.9% of 10000 at rank 9990 despite rounding. *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9))))

let quantile samples p =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  if p < 0. || p > 100. then invalid_arg "Stats.quantile: p outside [0, 100]";
  (sorted samples).(rank ~n p - 1)

let median samples = quantile samples 50.

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. samples /. float_of_int n

(* The tail ladder: a percentile is only reported when at least ten samples
   lie beyond it, so one stray sample can never set the tail on its own. *)
let ladder = [ 99.9; 99.; 90.; 50. ]
let min_beyond = 10

let tail_percentile ~n =
  match List.find_opt (fun p -> n - rank ~n p >= min_beyond) ladder with
  | Some p -> p
  | None -> 50.

let tail samples =
  let p = tail_percentile ~n:(Array.length samples) in
  (p, quantile samples p)
