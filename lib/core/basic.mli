(** The [basic] algorithm (paper §III-B.1): reformulate the target query
    through every possible mapping, evaluate each source query, and
    aggregate duplicate answers by summing probabilities.  The plan engine
    runs it through {!Factorized.run} over one singleton unit per mapping;
    the interpreted per-mapping loop is its differential oracle. *)

(** [run ?metrics ctx q ms] records its counters and phase timers under the
    ["basic"] scope of [metrics] (default {!Urm_obs.Metrics.global}). *)
val run :
  ?metrics:Urm_obs.Metrics.t -> Ctx.t -> Query.t -> Mapping.t list -> Report.t
