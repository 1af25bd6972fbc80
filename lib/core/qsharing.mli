(** The q-sharing algorithm (paper §IV, Algorithm 1): partition the mapping
    set with the partition tree and evaluate one reformulation per
    partition, carrying the partition's exact probability mass — e-basic's
    per-unit evaluation ({!Ebasic.run_units}) over
    {!Factorized.partition_units}.  Unlike e-basic this never rewrites the
    query through all h mappings. *)

(** [run ?metrics ctx q ms] records its counters and phase timers under the
    ["q-sharing"] scope of [metrics] (default {!Urm_obs.Metrics.global}). *)
val run :
  ?metrics:Urm_obs.Metrics.t -> Ctx.t -> Query.t -> Mapping.t list -> Report.t

(** [partitions ctx q ms] q-sharing's partitions of [ms] ({!Ptree.partition}:
    mappings that reformulate [q] alike), in first-insertion order — exposed
    for o-sharing, top-k and threshold, which start from the same
    partitioning, and tests.  Memoised in [ctx] per query shape and mapping
    list ({!Ptree.shared}): a query that differs from an earlier one only in
    its selection constants, over the same list, reuses its partition, so
    it is paid once per shape, not per request. *)
val partitions : Ctx.t -> Query.t -> Mapping.t list -> Mapping.t list list
