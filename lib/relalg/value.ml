type t =
  | Null
  | Int of int
  | Float of float
  | Str of string

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Str x, Str y -> String.equal x y
  | (Null | Int _ | Float _ | Str _), _ -> false

let rank = function Null -> 0 | Int _ -> 1 | Float _ -> 2 | Str _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Int x -> Format.pp_print_int ppf x
  | Float x -> Format.fprintf ppf "%g" x
  | Str x -> Format.fprintf ppf "%s" x

let to_string v = Format.asprintf "%a" pp v
let is_null = function Null -> true | Int _ | Float _ | Str _ -> false
