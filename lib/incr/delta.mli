(** Delta algebra over reformulated source queries.

    The delta rules per operator (DESIGN.md "Incremental maintenance"):
    selection and projection distribute over deltas (σ(R ∪ Δ) = σR ∪ σΔ),
    and a join telescopes — Δ(A ⋈ B) = (ΔA ⋈ B_old) ∪ (A_new ⋈ ΔB) — which
    generalises to any number of touched leaves by pinning earlier
    occurrences to the new version, the pivot to its delta and later
    occurrences to the old version.  Distinct-set semantics make the union
    of the step results a superset of the growth; subtracting the
    previously-known tuples recovers the exact delta. *)

(** [candidates ctx sq ~factor ~old_of ~delta_of e] target tuples that may
    be new after an insert-only batch: evaluates one telescoped step
    expression per touched occurrence of [e] through [ctx] (which must be
    pinned to the {e post}-commit snapshot) and reifies each result through
    [Urm.Reformulate.result_tuples].  [delta_of] returns the inserted rows
    of a touched relation ([None] = untouched), [old_of] its pre-commit
    version.  The caller must ensure [sq] is non-aggregate with an [Expr]
    body and subtract the pre-commit tuple set; duplicates across steps are
    possible and harmless. *)
val candidates :
  Urm.Ctx.t ->
  Urm.Reformulate.t ->
  factor:int ->
  old_of:(string -> Urm_relalg.Relation.t) ->
  delta_of:(string -> Urm_relalg.Relation.t option) ->
  Urm_relalg.Algebra.t ->
  Urm_relalg.Value.t array list
