(** The deduplicated e-unit DAG of the factorized multi-mapping executor.

    Given the optimised bodies of all distinct e-units, one counting sweep
    finds the subexpressions worth materialising once and re-scanning —
    common subexpressions are keyed on
    {!Urm_relalg.Algebra.canonical_fingerprint}, so conjunct-permuted
    duplicates arriving from different mappings collapse into one DAG
    node.  Deliberately cheap (a single pass with a local benefit test, no
    greedy re-costing): the factorized engine must win wall-clock even
    when nothing is shareable, unlike {!Planner}'s exhaustive e-MQO
    search. *)

type share = {
  expr : Urm_relalg.Algebra.t;
  occurrences : int;  (** e-units containing this subexpression *)
}

type t

(** The DAG with no shares — the e-basic degenerate case. *)
val empty : t

(** [build ?stats cat exprs] counts canonical subexpression occurrences
    across all unit bodies and keeps those whose re-use benefit exceeds
    the estimated write cost. *)
val build :
  ?stats:Urm_relalg.Stats_est.t ->
  Urm_relalg.Catalog.t ->
  Urm_relalg.Algebra.t list ->
  t

(** Chosen shares in dependency order (smaller expressions first, so a
    nested share materialises before its host). *)
val shares : t -> Urm_relalg.Algebra.t list

val chosen : t -> int
val candidates : t -> int

(** [substitute lookup e] swaps every maximal subtree with a materialised
    result (per [lookup], keyed on canonical fingerprint) into a [Mat]
    leaf.  Evaluate the shares in {!shares} order, adding each result to
    the lookup table as it completes, then substitute every unit body. *)
val substitute :
  (string -> Urm_relalg.Relation.t option) ->
  Urm_relalg.Algebra.t ->
  Urm_relalg.Algebra.t
