(* Order statistics over host-time and simulated samples.

   Percentiles are nearest-rank, by [Serve.Sweep.percentile]: the value
   at 1-based rank ceil(q * n) of the sorted samples, so every reported
   percentile is a sample that was actually measured. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The tail percentile worth reporting: the highest of a fixed ladder
   that still has at least ten samples strictly above its rank, so the
   figure is not one outlier.  [None] when even the median has fewer
   than ten samples beyond it. *)
type tail = { label : string; value : int; n : int }

let min_beyond = 10

let ladder =
  [ ("p99.9", 0.999); ("p99", 0.99); ("p95", 0.95); ("p90", 0.90); ("p75", 0.75); ("p50", 0.50) ]

let tail sorted =
  let n = Array.length sorted in
  let rank q = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
  List.find_map
    (fun (label, q) ->
      if n - rank q >= min_beyond then Some { label; value = Serve.Sweep.percentile sorted q; n } else None)
    ladder
