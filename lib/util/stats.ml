module Welford = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.; m2 = 0. }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let mean t = t.mean
  let stddev t = if t.n < 2 then 0. else sqrt (t.m2 /. float_of_int (t.n - 1))
end

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev xs =
  let w = Welford.create () in
  List.iter (Welford.add w) xs;
  Welford.stddev w

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: empty input";
  let arr = Array.of_list xs in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
  end

let percentile_or_zero p = function [] -> 0. | xs -> percentile p xs

let entropy fractions =
  List.fold_left
    (fun acc f -> if f > 0. then acc -. (f *. (log f /. log 2.)) else acc)
    0. fractions

let histogram ~buckets xs =
  if buckets <= 0 then invalid_arg "Stats.histogram: buckets must be positive";
  if xs = [] then invalid_arg "Stats.histogram: empty input";
  let lo = List.fold_left min infinity xs in
  let hi = List.fold_left max neg_infinity xs in
  let counts = Array.make buckets 0 in
  let width = if hi > lo then (hi -. lo) /. float_of_int buckets else 1. in
  let bucket_of x =
    let b = int_of_float ((x -. lo) /. width) in
    if b >= buckets then buckets - 1 else if b < 0 then 0 else b
  in
  List.iter (fun x -> counts.(bucket_of x) <- counts.(bucket_of x) + 1) xs;
  counts
