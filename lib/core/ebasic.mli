(** The [e-basic] algorithm (paper §III-B.2): like {!Basic} but identical
    source queries are clustered first and each distinct source query is
    evaluated once, carrying the summed probability of its mappings. *)

(** [run ?metrics ctx q ms] records its counters and phase timers under the
    ["e-basic"] scope of [metrics] (default {!Urm_obs.Metrics.global}). *)
val run :
  ?metrics:Urm_obs.Metrics.t -> Ctx.t -> Query.t -> Mapping.t list -> Report.t

(** The clustering step, exposed for e-MQO and tests: the units of
    {!Factorized.weighted_units} (source queries grouped by
    {!Reformulate.key}, in first-appearance order) with each weight vector
    collapsed to its probability mass. *)
val distinct_source_queries :
  Ctx.t -> Query.t -> Mapping.t list -> (Reformulate.t * float) list
