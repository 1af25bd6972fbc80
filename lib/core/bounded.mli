(** The bound-pruned pass shared by {!Topk}, {!Threshold} and {!Approx}
    (paper §VII, Algorithm 4): accumulate candidate answers unit by unit
    and stop as soon as the lower bounds (the mass seen so far per tuple)
    and the upper bound (the mass not yet visited) prove the result.

    - On the interpreted engine a unit is a leaf of o-sharing's u-trace
      ({!Eunit.run_qt}); the stop test runs once per leaf, and
      [visited_eunits] counts the u-trace e-units created.
    - On the plan engine a unit is one q-sharing partition
      ({!Qsharing.partitions}, as {!Factorized.partition_units}) of one
      {!Factorized.eval} pass without CSE, visited in descending mass
      order; the stop test runs once per unit, and [visited_eunits] counts
      the units visited.

    Candidates live in one {!Answer}: a tuple's probability there is its
    lower bound, exact once every unit has been visited.  With the
    unvisited mass U, each tuple's exact probability lies in
    [lower bound, lower bound + U] (an unseen tuple's in [0, U]). *)

type result = {
  report : Report.t;
      (** [report.answer] holds the candidates at their lower bounds *)
  visited_eunits : int;
  stopped_early : bool;  (** the pass ended before its last unit *)
  unvisited : float list;
      (** the exact mass of the units not visited, as a canonical component
          list ({!Answer.mass}); [[]] when the pass visited every unit *)
}

(** [run ~scope … ~stop ctx q ms] runs the pass.  [stop acc ~unvisited]
    sees the candidates after each unit and the mass of the units not yet
    visited (their exact sum, correctly rounded); [true] ends the pass.  It
    is asked only while that mass exceeds {!Prob.eps}.  [strategy]
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
  Ctx.t ->
  Query.t ->
  Mapping.t list ->
  result
