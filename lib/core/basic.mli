(** The [basic] algorithm (paper §III-B.1): reformulate the target query
    through every possible mapping, evaluate each source query, and
    aggregate duplicate answers by summing probabilities. *)

(** [run ?metrics ctx q ms] records its counters and phase timers under the
    ["basic"] scope of [metrics] (default {!Urm_obs.Metrics.global}). *)
val run :
  ?metrics:Urm_obs.Metrics.t -> Ctx.t -> Query.t -> Mapping.t list -> Report.t

(** [run_scoped ~metrics …] like {!run} but records directly into [metrics]
    without adding the ["basic"] scope or the per-run summary — for callers
    (q-sharing) that reuse the evaluation loop under their own scope and
    adjust the report before recording it. *)
val run_scoped :
  metrics:Urm_obs.Metrics.t -> Ctx.t -> Query.t -> Mapping.t list -> Report.t

(** [accumulate ~ctrs ctx q acc ms] the raw evaluation loop: reformulate,
    evaluate and aggregate each mapping of [ms] (in order) into [acc],
    without timers or reporting.  The service's partial-range evaluation
    runs this once per mapping so the shard router can merge per-mapping
    answers in ascending order. *)
val accumulate :
  ctrs:Urm_relalg.Eval.counters ->
  Ctx.t ->
  Query.t ->
  Answer.t ->
  Mapping.t list ->
  unit
