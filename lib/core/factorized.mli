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

(** [weighted_units ctx q ms] the distinct e-units of [q] under [ms] with
    their per-mapping probability vectors (ascending mapping order) — the
    mapping→e-unit incidence.  Same grouping and order as
    {!Ebasic.distinct_source_queries}; the collapsed {!Answer.vec_mass} of
    each vector is bit-identical to its summed mass. *)
val weighted_units :
  Ctx.t -> Query.t -> Mapping.t list -> (Reformulate.t * float array) list

(** [singleton_units ctx q ms] one unit per mapping with a degenerate
    weight vector — the q-sharing path, where each representative already
    carries its partition's mass and per-representative accumulation order
    must be preserved (duplicate reformulation keys replay). *)
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

(** [report ~ctrs ~rewrite ~groups ctx r] the algorithm report of one
    factorized run: answer, plan and evaluate times from [r], operator and
    row counts from [ctrs], [rewrite] seconds spent building the units, and
    an engine name suffixed ["+factorized"]. *)
val report :
  ctrs:Urm_relalg.Eval.counters ->
  rewrite:float ->
  groups:int ->
  Ctx.t ->
  result ->
  Report.t
