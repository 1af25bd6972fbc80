type agg =
  | Count
  | Sum of string

type t =
  | Base of string
  | Mat of Relation.t
  | Rename of string * t
  | Select of Pred.t * t
  | Project of string list * t
  | Distinct of t
  | Product of t * t
  | Join of Pred.t * t * t
  | Aggregate of agg * t
  | GroupBy of string list * agg * t

let rec size = function
  | Base _ | Mat _ -> 0
  | Rename (_, e) -> size e
  | Select (_, e) | Project (_, e) | Distinct e | Aggregate (_, e)
  | GroupBy (_, _, e) ->
    1 + size e
  | Product (a, b) | Join (_, a, b) -> 1 + size a + size b

let agg_str = function
  | Count -> "count"
  | Sum c -> "sum(" ^ c ^ ")"

let output_col = agg_str

let rec fingerprint = function
  | Base n -> "b:" ^ n
  | Mat r -> "m:" ^ string_of_int r.Relation.id
  | Rename (p, e) -> "r:" ^ p ^ "(" ^ fingerprint e ^ ")"
  | Select (p, e) -> "s:" ^ Pred.to_string p ^ "(" ^ fingerprint e ^ ")"
  | Project (cs, e) -> "p:" ^ String.concat "," cs ^ "(" ^ fingerprint e ^ ")"
  | Distinct e -> "d(" ^ fingerprint e ^ ")"
  | Product (a, b) -> "x(" ^ fingerprint a ^ "," ^ fingerprint b ^ ")"
  | Join (p, a, b) ->
    "j:" ^ Pred.to_string p ^ "(" ^ fingerprint a ^ "," ^ fingerprint b ^ ")"
  | Aggregate (a, e) -> "a:" ^ agg_str a ^ "(" ^ fingerprint e ^ ")"
  | GroupBy (keys, a, e) ->
    "g:" ^ String.concat "," keys ^ ":" ^ agg_str a ^ "(" ^ fingerprint e ^ ")"

(* Commutative conjunctions are rebuilt in sorted order so that two
   reformulations differing only in conjunct arrangement key identically.
   Only predicates are normalised: column lists (Project/GroupBy) and
   product order determine the result header and row order, so they must
   stay untouched. *)
let canonical_pred p =
  Pred.conj
    (List.sort
       (fun a b -> String.compare (Pred.to_string a) (Pred.to_string b))
       (Pred.conjuncts p))

let rec canonical = function
  | (Base _ | Mat _) as e -> e
  | Rename (p, e) -> Rename (p, canonical e)
  | Select (p, e) -> Select (canonical_pred p, canonical e)
  | Project (cs, e) -> Project (cs, canonical e)
  | Distinct e -> Distinct (canonical e)
  | Product (a, b) -> Product (canonical a, canonical b)
  | Join (p, a, b) -> Join (canonical_pred p, canonical a, canonical b)
  | Aggregate (a, e) -> Aggregate (a, canonical e)
  | GroupBy (keys, a, e) -> GroupBy (keys, a, canonical e)

let canonical_fingerprint e = fingerprint (canonical e)

let equal a b = String.equal (fingerprint a) (fingerprint b)
let compare a b = String.compare (fingerprint a) (fingerprint b)
let hash t = Hashtbl.hash (fingerprint t)

let children = function
  | Base _ | Mat _ -> []
  | Rename (_, e)
  | Select (_, e)
  | Project (_, e)
  | Distinct e
  | Aggregate (_, e)
  | GroupBy (_, _, e) -> [ e ]
  | Product (a, b) | Join (_, a, b) -> [ a; b ]

let rec subexpressions t = t :: List.concat_map subexpressions (children t)

let rec contains_mat = function
  | Mat _ -> true
  | e -> List.exists contains_mat (children e)

let rec pp ppf = function
  | Base n -> Format.pp_print_string ppf n
  | Mat r ->
    Format.fprintf ppf "⟨R%d:%d rows⟩" r.Relation.id (Relation.cardinality r)
  | Rename (p, e) -> Format.fprintf ppf "ρ_%s(%a)" p pp e
  | Select (p, e) -> Format.fprintf ppf "σ[%a](%a)" Pred.pp p pp e
  | Project (cs, e) ->
    Format.fprintf ppf "π[%s](%a)" (String.concat "," cs) pp e
  | Distinct e -> Format.fprintf ppf "δ(%a)" pp e
  | Product (a, b) -> Format.fprintf ppf "(%a × %a)" pp a pp b
  | Join (p, a, b) -> Format.fprintf ppf "(%a ⋈[%a] %a)" pp a Pred.pp p pp b
  | Aggregate (a, e) -> Format.fprintf ppf "%s(%a)" (agg_str a) pp e
  | GroupBy (keys, a, e) ->
    Format.fprintf ppf "γ[%s;%s](%a)" (String.concat "," keys) (agg_str a) pp e

let to_string t = Format.asprintf "%a" pp t
