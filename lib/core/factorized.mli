(** The factorized multi-mapping executor: one vectorized pass over the
    e-unit DAG for all h mappings.

    Each distinct e-unit compiles to one plan and executes exactly once;
    result batches stream into the answer over the weight-vector channel
    ({!Ctx.eval_wbatches}), folding the Pr(mᵢ) mass of every mapping whose
    reformulation contains the e-unit into each bucket with a single
    addition ({!Answer.add_vec}).  With [cse] the distinct units
    additionally share materialised common subexpressions through the
    {!Urm_mqo.Dag} pass.

    Answers are bit-identical to the sequential interpreted per-unit
    oracle: units are processed in first-seen order, the collapsed vector
    mass equals the oracle's incremental per-mapping sum, and repeated
    reformulation keys replay the first occurrence's bucket cells in unit
    order. *)

type result = {
  answer : Answer.t;
  units : int;  (** e-units processed (incl. unsatisfiable/trivial) *)
  executed : int;  (** plans actually run *)
  replayed : int;  (** units served from the replay memo *)
  matched : int;
      (** executed units whose result stream exactly reproduced an earlier
          unit's and replayed its bucket ids (see
          {!Reformulate.record_weighted_answers_into}) *)
  shares : int;  (** DAG subexpressions materialised once *)
  plan_time : float;  (** DAG construction seconds ([cse] only) *)
  evaluate_time : float;  (** share + unit execution seconds *)
}

(** [weighted_units ctx q ms] the distinct e-units of [q] under [ms],
    grouped by {!Reformulate.key} in first-seen order, with their
    per-mapping probability vectors (ascending mapping order) — the
    mapping→e-unit incidence.  The collapsed {!Answer.vec_mass} of each
    vector is bit-identical to the incremental per-mapping sum. *)
val weighted_units :
  Ctx.t -> Query.t -> Mapping.t list -> (Reformulate.t * float array) list

(** [singleton_units ctx q ms] one unit per mapping with a degenerate
    weight vector — basic, and q-sharing over its representatives (each
    already carries its partition's mass): per-mapping accumulation order
    is preserved and duplicate reformulation keys replay. *)
val singleton_units :
  Ctx.t -> Query.t -> Mapping.t list -> (Reformulate.t * float array) list

(** [eval ~ctrs ?cse ctx q units] the single pass.  [cse] (default
    [false]) turns on cross-unit common-subexpression materialisation —
    the factorized e-MQO. *)
val eval :
  ctrs:Urm_relalg.Eval.counters ->
  ?cse:bool ->
  Ctx.t ->
  Query.t ->
  (Reformulate.t * float array) list ->
  result

(** [run ~metrics ?cse ctx q build] one factorized run of an exact
    algorithm: counters under [metrics], [build ()] timed as the rewrite
    phase, then {!eval}.  The report carries the plan and evaluate times
    of the result, [groups] = units processed, aggregate 0 (evaluation
    fuses it), and an engine name suffixed ["+factorized"]. *)
val run :
  metrics:Urm_obs.Metrics.t ->
  ?cse:bool ->
  Ctx.t ->
  Query.t ->
  (unit -> (Reformulate.t * float array) list) ->
  Report.t * result
