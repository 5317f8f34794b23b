(* Order statistics for latency samples and for comparing sets of runs. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* nearest rank: the 1-based index of the smallest sample with at least
   [p] percent of the samples at or below it *)
let rank n p = max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9)))

(* [percentile sorted p]; [nan] on no samples *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan else sorted.(min n (rank n p) - 1)

(* samples strictly above the [p]th percentile *)
let beyond n p = n - rank n p

(* a tail percentile is reported only with at least ten samples beyond it *)
let supported n p = n > 0 && beyond n p >= 10

let mean a =
  let n = Array.length a in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

(* Python's [statistics.quantiles(values, n=4)] (the default
   'exclusive' method), so spreads match what other tools compute from
   the same runs. *)
let quartiles values =
  let d = sorted values in
  let ld = Array.length d in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m
