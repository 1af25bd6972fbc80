(* The exact sum of the finite float operands is hi + lo + [rest]: each
   operand updates the pair (hi, lo) with two TwoSums, as an answer
   bucket is updated, and only the second TwoSum's rounding error, when it
   is not zero, grows the expansion [rest].  The floats sit in one unboxed
   array, so an operand allocates nothing while the pair holds its sum. *)
type t = {
  acc : float array; (* [| hi; lo; special |] *)
  mutable rest : float list; (* a Shewchuk expansion, ascending *)
  mutable ints : int; (* Int operands, wrapping as Int arithmetic does *)
  mutable seen_int : bool;
  mutable seen_float : bool;
}

let create () =
  { acc = [| 0.; 0.; 0. |]; rest = []; ints = 0; seen_int = false; seen_float = false }

(* [special] (acc.(2)) is the IEEE sum of the non-finite operands and of
   the infinity a finite operand overflows the running sum to. *)
let add_float t f =
  let a = t.acc in
  let hi = a.(0) in
  let s = hi +. f in
  if Float.is_finite s then begin
    let lo = a.(1) in
    let b = s -. hi in
    let e = (hi -. (s -. b)) +. (f -. b) in
    let u = e +. lo in
    let b = u -. e in
    let err = (e -. (u -. b)) +. (lo -. b) in
    a.(0) <- s;
    a.(1) <- u;
    if err <> 0. then t.rest <- Urm_util.Expansion.grow t.rest err
  end
  else a.(2) <- a.(2) +. (if Float.is_finite f then s else f)

let add t = function
  | Value.Null -> ()
  | Value.Int i ->
    t.seen_int <- true;
    t.ints <- t.ints + i;
    add_float t (float_of_int i)
  | Value.Float f ->
    t.seen_float <- true;
    add_float t f
  | Value.Str _ -> invalid_arg "Value.add: string operand"

let value t =
  if t.seen_float then
    let a = t.acc in
    let sum = Urm_util.Expansion.(round (canonical (a.(0) :: a.(1) :: t.rest))) in
    Value.Float (if a.(2) = 0. then sum else sum +. a.(2))
  else if t.seen_int then Value.Int t.ints
  else Value.Null
