(* Order statistics over the samples of one run. Quartiles interpolate
   linearly between closest ranks (Python's
   [statistics.quantiles(method="inclusive")]), so two samples already
   have a spread and one sample has none. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

let quantile (sorted : float array) p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quant.quantile: no samples";
  let pos = p *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let summarize (xs : float list) : summary =
  let a = Array.of_list xs in
  Array.sort compare a;
  {
    median = quantile a 0.5;
    q1 = quantile a 0.25;
    q3 = quantile a 0.75;
    n = Array.length a;
  }

(* interquartile distance as a share of the median *)
let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. s.median
