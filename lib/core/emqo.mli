(** The [e-MQO] algorithm (paper §III-B.3): cluster identical source queries
    as in e-basic, then hand the distinct queries to a multi-query optimiser
    that builds one global plan sharing common subexpressions, and evaluate
    that plan.  Plan generation cost is part of the reported time — it is
    the reason the paper finds e-MQO slower than e-basic despite executing
    the fewest operators. *)

(** [run ?metrics ctx q ms] records its counters and phase timers under the
    ["e-MQO"] scope of [metrics] (default {!Urm_obs.Metrics.global}). *)
val run :
  ?metrics:Urm_obs.Metrics.t -> Ctx.t -> Query.t -> Mapping.t list -> Report.t
