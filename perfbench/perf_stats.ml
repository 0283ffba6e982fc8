(* The benchmark's own arithmetic: tail percentiles, span self time and
   per-op ratios. Pure, so the test suite can pin every rule down. *)

(* 1-based nearest rank of the [p]th percentile of [n] samples; the slack
   keeps 99.9% of 10 000 at rank 9 990 despite rounding. *)
let rank (n : int) (p : float) : int = int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9))

(* Nearest-rank percentile of an ascending array: the smallest sample with
   at least [p]% of the samples at or below it. *)
let nearest_rank (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "nearest_rank: no samples";
  sorted.(max 0 (min (n - 1) (rank n p - 1)))

(* Samples strictly above the nearest-rank [p]th percentile's position. *)
let beyond (n : int) (p : float) : int = n - rank n p

let ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* The highest percentile, up to [cap], that still has ten samples beyond
   it; the median when even that is out of reach. *)
let tail_percentile ?(cap = 99.) (n : int) : float =
  match List.find_opt (fun p -> p <= cap && beyond n p >= 10) ladder with Some p -> p | None -> 50.

type summary = { n : int; p50 : float; tail_p : float; tail : float; mean : float }

(* Median plus the capped tail percentile of a sample set. *)
let summarize ?cap (xs : float array) : summary =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let tail_p = tail_percentile ?cap n in
  {
    n;
    p50 = nearest_rank sorted 50.;
    tail_p;
    tail = nearest_rank sorted tail_p;
    mean = Array.fold_left ( +. ) 0. sorted /. float_of_int n;
  }

let median (xs : float list) : float = (summarize (Array.of_list xs)).p50

(* Length of the union of [children] clipped to [start, stop]. *)
let covered ~start ~stop (children : (float * float) list) : float =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = Float.max s start and e = Float.min e stop in
        if e > s then Some (s, e) else None)
      children
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) when s <= ce -> (total, Some (cs, Float.max ce e))
        | Some (cs, ce) -> (total +. (ce -. cs), Some (s, e)))
      (0., None) sorted
  in
  match last with None -> total | Some (s, e) -> total +. (e -. s)

(* A span's duration minus the part of it its children cover. *)
let self_time ~start ~stop children = stop -. start -. covered ~start ~stop children

(* Every [_per_op] metric divides by the measured-phase op count. *)
let per_op ~ops (x : float) : float = if ops <= 0 then 0. else x /. float_of_int ops

let ratio (num : float) (den : float) : float = if den <= 0. then 0. else num /. den

(* Ops per second of op time, from the ops' latencies (one client). *)
let rate (xs : float array) : float = ratio (float_of_int (Array.length xs)) (Array.fold_left ( +. ) 0. xs)
