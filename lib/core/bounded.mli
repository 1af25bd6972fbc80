(** The bound-pruned pass shared by {!Topk} and {!Threshold} (paper §VII,
    Algorithm 4): accumulate candidate answers unit by unit and stop as
    soon as the lower bounds (the mass seen so far per tuple) and the upper
    bound (the mass not yet visited) prove the result.

    - On the interpreted engine a unit is a leaf of o-sharing's u-trace
      ({!Eunit.run_qt}); the stop test runs once per leaf, and
      [visited_eunits] counts the u-trace e-units created.
    - On the plan engine a unit is one of o-sharing's representatives
      ({!Qsharing.representatives}) as a singleton unit of one
      {!Factorized.eval} pass without CSE, visited in descending mass
      order; the stop test runs once per unit, and [visited_eunits] counts
      the units visited.

    Candidates live in one {!Answer}: a tuple's probability there is its
    lower bound, exact once every unit has been visited. *)

type result = {
  report : Report.t;
  visited_eunits : int;
  stopped_early : bool;  (** the pass ended before its last unit *)
}

(** [run ~scope … ~stop ~finish ctx q ms] runs the pass.  [stop acc
    ~unvisited] sees the candidates after each unit and the mass of the
    units not yet visited; [true] ends the pass.
    [finish] turns the candidates into the reported answer.  [strategy]
    (default SEF), [seed] and [use_memo] steer only the interpreted
    u-trace.  Counters and phase timers go under the [scope] of [metrics]
    (default {!Urm_obs.Metrics.global}). *)
val run :
  scope:string ->
  ?strategy:Eunit.strategy ->
  ?seed:int ->
  ?use_memo:bool ->
  ?metrics:Urm_obs.Metrics.t ->
  stop:(Answer.t -> unvisited:float -> bool) ->
  finish:(Answer.t -> Answer.t) ->
  Ctx.t ->
  Query.t ->
  Mapping.t list ->
  result
