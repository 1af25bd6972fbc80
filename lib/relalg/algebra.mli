(** Relational-algebra expressions.

    These trees represent both target queries (over target schemas) and the
    source queries obtained by reformulation; leaves are either named
    relations ([Base]), alias instantiations ([Rename]) or materialized
    intermediate results ([Mat], used by o-sharing's e-units). *)

(** The paper's aggregates (Table III: Q9 SUM, Q10 COUNT).  COUNT counts
    rows, nulls included; SUM is {!Sum_acc}'s exact sum, so both engines
    and every plan give bit-identical results. *)
type agg =
  | Count
  | Sum of string

type t =
  | Base of string  (** stored relation, looked up in the catalog *)
  | Mat of Relation.t  (** already-computed intermediate result *)
  | Rename of string * t
      (** [Rename (p, e)]: prefix every column of [e] with ["p#"]; gives a
          self-joined relation instance its own column namespace *)
  | Select of Pred.t * t
  | Project of string list * t
  | Distinct of t
  | Product of t * t
  | Join of Pred.t * t * t
  | Aggregate of agg * t
  | GroupBy of string list * agg * t
      (** [GroupBy (keys, agg, e)]: one output row per distinct key
          combination, with columns [keys @ [output_col agg]] *)

(** Number of operator nodes ([Select]/[Project]/[Distinct]/[Product]/
    [Join]/[Aggregate]/[GroupBy]); leaves and [Rename] are free. *)
val size : t -> int

(** Canonical string form; two expressions are the same source query iff
    their fingerprints are equal ([Mat] nodes print their relation id).
    This is what e-basic deduplicates on. *)
val fingerprint : t -> string

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** [canonical t] rewrites every commutative conjunction ([Pred.And]
    spines in [Select]/[Join] predicates) into a sorted normal form, so
    that two expressions differing only in conjunct arrangement become
    structurally equal.  Column lists and product order are left alone —
    they determine the result header and row order.  The rewrite preserves
    the result as a set of rows (filter predicates do not affect row
    order), which is what makes it sound as a {!Plan_cache} key. *)
val canonical : t -> t

(** [canonical_fingerprint t] = [fingerprint (canonical t)] — the plan
    cache's key, under which conjunct-permuted reformulations of the same
    e-unit share one compiled plan. *)
val canonical_fingerprint : t -> string

(** Immediate subexpressions, left to right. *)
val children : t -> t list

(** All subexpressions including [t] itself (pre-order). *)
val subexpressions : t -> t list

(** Whether the expression embeds a materialised intermediate ([Mat]).
    Such expressions are one-shot: their fingerprint is only stable for the
    lifetime of the embedded relation, so plan caches must not key on it. *)
val contains_mat : t -> bool

(** [output_col agg] is the column name carried by an aggregate's one-row
    result (e.g. ["count"], ["sum(x)"]). *)
val output_col : agg -> string

val pp : Format.formatter -> t -> unit
val to_string : t -> string
