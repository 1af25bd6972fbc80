(** Multi-query optimisation, in the style of Roy et al. (SIGMOD 2000): a
    cost-based greedy search over candidate shared subexpressions with full
    benefit recomputation at each step.

    This is the substrate behind the paper's e-MQO baseline.  The planner
    deliberately performs the expensive global search the paper attributes to
    MQO ("the plan generation process is extremely expensive", §VIII-B.2):
    each greedy iteration re-costs every remaining candidate against the
    current materialisation set, so planning cost grows super-linearly with
    the number of distinct source queries, while the resulting plan executes
    a near-minimal number of operators. *)

type metrics = {
  candidates : int;  (** shareable subexpressions considered *)
  chosen : int;  (** subexpressions selected for materialisation *)
  cost_evaluations : int;  (** total cost-model evaluations performed *)
}

type plan

(** [plan ?stats cat queries] builds a global plan for evaluating all
    [queries] (already optimised or not; the planner normalises them
    itself).  With [stats], the cost model uses per-column statistics
    ({!Urm_relalg.Stats_est}) for selection and join selectivities instead
    of fixed magic constants. *)
val plan :
  ?stats:Urm_relalg.Stats_est.t ->
  Urm_relalg.Catalog.t ->
  Urm_relalg.Algebra.t list ->
  plan

val metrics : plan -> metrics

(** Fingerprints of the chosen shared subexpressions, in evaluation order. *)
val shared : plan -> Urm_relalg.Algebra.t list

(** [execute ?ctrs ?eval cat p] evaluates every input query under the plan,
    materialising shared subexpressions once.  Results are returned in input
    order.  [ctrs] counts operator executions (shared operators count
    once).  [eval] substitutes the expression evaluator (the core library
    passes [Urm.Ctx.eval] so the swapped expressions run through the
    context's engine); defaults to {!Urm_relalg.Eval.eval}. *)
val execute :
  ?ctrs:Urm_relalg.Eval.counters ->
  ?eval:(Urm_relalg.Algebra.t -> Urm_relalg.Relation.t) ->
  Urm_relalg.Catalog.t ->
  plan ->
  (Urm_relalg.Algebra.t * Urm_relalg.Relation.t) list

(** [execute_iter ?ctrs ?eval cat p ~f] like {!execute} but streams each
    query's result to [f index query relation] instead of retaining all
    results (shared materialisations are still cached for the duration). *)
val execute_iter :
  ?ctrs:Urm_relalg.Eval.counters ->
  ?eval:(Urm_relalg.Algebra.t -> Urm_relalg.Relation.t) ->
  Urm_relalg.Catalog.t ->
  plan ->
  f:(int -> Urm_relalg.Algebra.t -> Urm_relalg.Relation.t -> unit) ->
  unit

(** [est_card ?stats cat e] the cost model's cardinality estimate for [e] —
    exposed for {!Dag}'s cheap benefit heuristic. *)
val est_card :
  ?stats:Urm_relalg.Stats_est.t ->
  Urm_relalg.Catalog.t ->
  Urm_relalg.Algebra.t ->
  float

(** [eval_cost ?stats cat e] the cost model's estimate of evaluating [e]
    standalone (no materialised shares). *)
val eval_cost :
  ?stats:Urm_relalg.Stats_est.t ->
  Urm_relalg.Catalog.t ->
  Urm_relalg.Algebra.t ->
  float
