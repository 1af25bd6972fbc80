(** The factorized multi-mapping executor: one vectorized pass over the
    e-unit DAG for all h mappings.

    Each distinct e-unit compiles to one plan and executes exactly once;
    result batches stream into the answer over the weight-vector channel
    ({!Ctx.eval_wbatches}), adding the exact Pr(mᵢ) sum of every mapping
    whose reformulation contains the e-unit ({!Answer.mass}) to each
    bucket, one addition per component.  With [cse] the distinct units
    additionally share materialised common subexpressions through the
    {!Urm_mqo.Dag} pass.

    Answers are bit-identical to the interpreted oracles: each unit adds
    its mappings' exact mass to the buckets of its tuples, and {!Answer}
    sums exactly, so neither unit order, nor a split of the unit list into
    chunks, nor the grouping of mappings into units changes a bit. *)

type result = {
  answer : Answer.t;
  units : int;
      (** e-units processed (incl. unsatisfiable/trivial) — fewer than
          given when [stop] ended the pass early *)
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
    per-mapping probability vectors — the mapping→e-unit incidence.  It
    reformulates once per q-sharing partition ({!Ptree.representatives},
    over the context's memoised partition) and merges the partitions that
    share a key, so a vector lists its
    members partition by partition (in mapping order within each).  Each
    unit adds the exact sum of its vector ({!Answer.mass}), so that order
    changes no bit. *)
val weighted_units :
  Ctx.t -> Query.t -> Mapping.t list -> (Reformulate.t * float array) list

(** [partition_units ctx q partitions] one unit per partition of mappings
    that reformulate alike (q-sharing's {!Ptree.partition}), reformulated
    through its first member and weighted by every member's probability,
    so it adds the partition's exact mass.  Reformulation probes the
    source instance ({!Reformulate.selection_probe}, one memo per call): a
    unit whose equality selection matches no source row becomes
    [Unsatisfiable] at the same position, which adds the same θ / COUNT 0
    / SUM Null its evaluated plan would, without compiling or running it.
    Raises [Invalid_argument] on an empty partition. *)
val partition_units :
  Ctx.t -> Query.t -> Mapping.t list list -> (Reformulate.t * float array) list

(** [singleton_units ctx q ms] {!partition_units} over one singleton
    partition per mapping — basic's units: each mapping adds its own
    probability and duplicate reformulation keys replay. *)
val singleton_units :
  Ctx.t -> Query.t -> Mapping.t list -> (Reformulate.t * float array) list

(** [eval ~ctrs ?cse ?stop ctx q units] the single pass.  [cse] (default
    [false]) turns on cross-unit common-subexpression materialisation —
    the factorized e-MQO.  [stop acc ~unvisited] is called after every
    unit but the last, with the answer so far and the mass of the units
    not yet visited (their exact sum, correctly rounded); returning [true]
    ends the pass there (top-k, threshold and approx's early
    termination). *)
val eval :
  ctrs:Urm_relalg.Eval.counters ->
  ?cse:bool ->
  ?stop:(Answer.t -> unvisited:float -> bool) ->
  Ctx.t ->
  Query.t ->
  (Reformulate.t * float array) list ->
  result

(** [run ~metrics ?cse ?stop ctx q build] one factorized run of an exact
    algorithm (or, with [stop], of a {!Bounded} pass): counters under
    [metrics], [build ()] timed as the rewrite phase, then {!eval}.  The
    report carries the plan and evaluate times of the result, [groups] = units processed, aggregate 0 (evaluation
    fuses it), and an engine name suffixed ["+factorized"]. *)
val run :
  metrics:Urm_obs.Metrics.t ->
  ?cse:bool ->
  ?stop:(Answer.t -> unvisited:float -> bool) ->
  Ctx.t ->
  Query.t ->
  (unit -> (Reformulate.t * float array) list) ->
  Report.t * result
