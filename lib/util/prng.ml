type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }
let copy t = { state = t.state }

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = next t in
  { state = mix64 s }

let int t bound =
  assert (bound > 0);
  (* Rejection-free modulo is fine here: bound is tiny w.r.t. 2^62 so the
     bias is negligible for simulation purposes. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let in_range t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t < p
let pick t arr = arr.(int t (Array.length arr))

let pick_list t l =
  let n = List.length l in
  List.nth l (int t n)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

module Zipf = struct
  type prng = t
  type t = { cdf : float array }

  let create ~n ~theta =
    assert (n > 0);
    let cdf = Array.make n 0. in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) (max 0. theta));
      cdf.(i) <- !acc
    done;
    let total = !acc in
    Array.iteri (fun i v -> cdf.(i) <- v /. total) cdf;
    { cdf }

  let draw z (rng : prng) =
    let x = float rng in
    let n = Array.length z.cdf in
    (* Binary search for the first index with cdf >= x. *)
    let rec go lo hi =
      if lo >= hi then lo + 1
      else
        let mid = (lo + hi) / 2 in
        if z.cdf.(mid) >= x then go lo mid else go (mid + 1) hi
    in
    go 0 (n - 1)
end

let zipf t ~n ~theta =
  let z = Zipf.create ~n ~theta in
  Zipf.draw z t
