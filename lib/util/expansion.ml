(* Shewchuk's Grow-Expansion with zero elimination: [e] + [x], exactly. *)
let grow e x =
  let rec go x = function
    | [] -> if x = 0. then [] else [ x ]
    | y :: rest ->
      let s = x +. y in
      let b = s -. x in
      let err = (x -. (s -. b)) +. (y -. b) in
      if err = 0. then go s rest else err :: go s rest
  in
  go x e

(* [hi] plus an expansion given largest first, correctly rounded: sum from
   the top while exact, then settle a half-way tie by the sign of what
   lies below (the final step of CPython's [math.fsum]). *)
let rec round_desc hi = function
  | [] -> hi
  | y :: rest -> (
    let s = hi +. y in
    let lo = y -. (s -. hi) in
    let x = s +. (2. *. lo) in
    match rest with
    | _ when lo = 0. -> round_desc s rest
    | z :: _ when lo < 0. = (z < 0.) && x -. s = 2. *. lo -> x
    | _ -> s)

(* The canonical form of a valid expansion: each component is the rounded
   rest of the sum — round what is left, take it away exactly, repeat. *)
let rec settle e =
  if e = [] then []
  else
    let c = round_desc 0. (List.rev e) in
    if Float.is_finite c then c :: settle (grow e (-.c)) else [ c ]

let canonical e = settle (List.fold_left grow [] e)
let add c x = settle (grow (List.rev c) x)
let sum xs = settle (Array.fold_left grow [] xs)
let round = function c :: _ -> c | [] -> 0.
