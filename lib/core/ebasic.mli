(** The [e-basic] algorithm (paper §III-B.2): like {!Basic} but identical
    source queries are clustered first and each distinct source query is
    evaluated once, carrying the summed probability of its mappings. *)

(** [run ?metrics ctx q ms] records its counters and phase timers under the
    ["e-basic"] scope of [metrics] (default {!Urm_obs.Metrics.global}). *)
val run :
  ?metrics:Urm_obs.Metrics.t -> Ctx.t -> Query.t -> Mapping.t list -> Report.t

(** [run_units ~metrics ctx q build] the per-unit evaluation of e-basic
    over the units [build ()] returns (timed as the rewrite phase), each
    adding its exact mass ({!Answer.mass}): the interpreted per-unit loop,
    or {!Factorized.run} on the plan engine.  Counters go straight into
    [metrics]; the caller scopes and records the report.  q-sharing runs
    it over its partition units. *)
val run_units :
  metrics:Urm_obs.Metrics.t ->
  Ctx.t ->
  Query.t ->
  (unit -> (Reformulate.t * float array) list) ->
  Report.t

(** The clustering step, exposed for e-MQO and tests: the units of
    {!Factorized.weighted_units} (source queries grouped by
    {!Reformulate.key}, in first-appearance order) with each weight vector
    turned into its exact mass ({!Answer.mass}). *)
val distinct_source_queries :
  Ctx.t -> Query.t -> Mapping.t list -> (Reformulate.t * float list) list
