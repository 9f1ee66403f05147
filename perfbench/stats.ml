(* Order statistics for the benchmark's reports. *)

(* Nearest-rank percentile: the smallest sample with at least [p] percent
   of the samples at or below it, i.e. rank [ceil (p/100 * n)]. Returns
   the value and how many samples lie strictly beyond that rank. *)
let percentile_rank samples p =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile_rank: no samples";
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  let rank = max 1 (min n rank) in
  (sorted.(rank - 1), n - rank)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no values";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A tail percentile that one burst of host stalls cannot move: split the
   samples, in order, into equal windows of at least [window] samples,
   take the nearest-rank [p]-th percentile of each, and report their
   median with the number of samples beyond the rank in each window. *)
let windowed_percentile samples ~window p =
  let n = Array.length samples in
  let k = max 1 (n / window) in
  let size = n / k in
  let per =
    List.init k (fun i -> percentile_rank (Array.sub samples (i * size) size) p)
  in
  (median (List.map fst per), List.fold_left (fun m (_, b) -> min m b) max_int per, k)

(* Interquartile range as a share of the median, quartiles interpolated
   the way Python's [statistics.quantiles(values, n=4)] does (the
   "exclusive" method). *)
let quantiles4 l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quantiles4: at least two values";
  let q k =
    let m = float_of_int (n + 1) *. float_of_int k /. 4. in
    let j = max 1 (min (n - 1) (int_of_float (floor m))) in
    let delta = m -. float_of_int j in
    a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
  in
  (q 1, q 2, q 3)

let iqr_share l =
  let q1, q2, q3 = quantiles4 l in
  if q2 = 0. then 0. else (q3 -. q1) /. q2
