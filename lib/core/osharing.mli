(** The o-sharing algorithm (paper §V–§VI, Algorithm 2): interleaves query
    reformulation and operator execution through the u-trace so that
    operator results are shared between mappings that agree on the operator
    being executed, even when they disagree elsewhere. *)

(** [run ?strategy ?seed ?use_memo ?metrics ctx q ms] evaluates the
    probabilistic query.  [strategy] (default {!Eunit.Sef}) picks the next
    operator; [seed] feeds the [Random] strategy; [use_memo] (default
    [true]) toggles cross-branch operator-result memoisation; all three
    steer the interpreted u-trace traversal only — the plan engine runs
    {!Factorized.run} with cross-unit CSE, which has no u-trace.  Counters and
    phase timers are recorded under the ["o-sharing"] scope of [metrics]
    (default {!Urm_obs.Metrics.global}). *)
val run :
  ?strategy:Eunit.strategy ->
  ?seed:int ->
  ?use_memo:bool ->
  ?metrics:Urm_obs.Metrics.t ->
  Ctx.t ->
  Query.t ->
  Mapping.t list ->
  Report.t

(** Extra run statistics alongside the report.  Since the metrics layer was
    threaded through {!Eunit}, this record is a thin view over the same
    [urm_obs] counters (["o-sharing/eunit/executions"],
    ["o-sharing/eunit/memo_hits"], ["o-sharing/eunit/representatives"]) —
    the two always agree. *)
type stats = { eunits : int; memo_hits : int; representatives : int }

(** [run_with_stats ?tracer …] like {!run}; [tracer] receives one line per
    u-trace event (see {!Eunit.set_tracer}) — o-sharing's "explain". *)
val run_with_stats :
  ?strategy:Eunit.strategy ->
  ?seed:int ->
  ?use_memo:bool ->
  ?tracer:(string -> unit) ->
  ?metrics:Urm_obs.Metrics.t ->
  Ctx.t ->
  Query.t ->
  Mapping.t list ->
  Report.t * stats
