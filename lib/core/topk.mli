(** Probabilistic top-k queries (paper §VII, Algorithm 4).

    Returns the k answer tuples with the highest probabilities without
    computing exact probabilities: units of probability mass are visited
    only until the lower bounds (the mass each tuple has gathered) and the
    upper bound UB (the mass not yet visited) prove the top-k set — UB ≤
    LB_k, the k-th highest lower bound, and at most k candidates can still
    reach LB_k.  θ is probability book-keeping only, never a candidate
    answer (DESIGN.md, semantics decision 7).  See {!Bounded} for the pass
    on each engine:

    - plan engine: one unit per q-sharing partition in one
      {!Factorized.eval} pass, in descending mass order, the bounds checked
      once per unit; [visited_eunits] counts the units visited;
    - interpreted engine: the paper's u-trace traversal, the bounds checked
      once per leaf; [visited_eunits] counts u-trace e-units.

    Reported per-tuple probabilities are the accumulated {e lower bounds}
    at termination, equal to the exact values when every unit was visited
    ([stopped_early = false]) — the paper's contract: the user "does not
    care about the exact probability values". *)

type result = {
  report : Report.t;
      (** [report.answer] holds the top-k tuples with their lower-bound
          probabilities *)
  visited_eunits : int;
      (** units visited (plan engine) or u-trace e-units created
          (interpreted engine) by this run *)
  stopped_early : bool;  (** the pass ended before its last unit *)
  unvisited : float list;  (** see {!Bounded.result} *)
}

(** [proven ~k acc ~unvisited] the paper's stop test over the candidates
    [acc] (lower bounds) and the unvisited mass UB. *)
val proven : k:int -> Answer.t -> unvisited:float -> bool

(** [select ~k acc] the [k] most probable candidates at their lower
    bounds: the reported top-k answer. *)
val select : k:int -> Answer.t -> Answer.t

(** [run ~k ctx q ms] with [k > 0]; raises [Invalid_argument] otherwise.
    [strategy], [seed] and [use_memo] steer only the interpreted u-trace.
    Counters and phase timers are recorded under the ["topk"] scope of
    [metrics] (default {!Urm_obs.Metrics.global}). *)
val run :
  ?strategy:Eunit.strategy ->
  ?seed:int ->
  ?use_memo:bool ->
  ?metrics:Urm_obs.Metrics.t ->
  k:int ->
  Ctx.t ->
  Query.t ->
  Mapping.t list ->
  result
