(* Clock and order statistics shared by every part of the benchmark. *)

(* Monotonic nanoseconds; unboxed and allocation-free. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Quartiles by Python's [statistics.quantiles(data, n=4)] ("exclusive"
   method), the estimator the stability check applies to whole runs, so a
   median/IQR printed here reads the same as one computed over run
   outputs. *)
let quartiles samples =
  let d = Array.of_list samples in
  Array.sort compare d;
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 and n = 4 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((d.(j - 1) *. float_of_int (n - delta)) +. (d.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)

let median samples =
  let _, m, _ = quartiles samples in
  m

(* Interquartile range as a share of the median. *)
let spread samples =
  let q1, m, q3 = quartiles samples in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
