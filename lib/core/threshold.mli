(** Probability-threshold queries: all answers with probability ≥ τ.

    A companion to {!Topk} in the same spirit (the "probability threshold"
    query class of the uncertain-database literature the paper builds on)
    and the same pass ({!Bounded}): a tuple is {e in} once its accumulated
    lower bound reaches τ, {e out} once even the whole unvisited mass UB
    cannot lift it to τ, and the pass stops as soon as every candidate is
    decided and UB < τ, so no unseen tuple can still qualify.  The test
    runs once per unit — a representative of one {!Factorized.eval} pass in
    descending mass order on the plan engine ([visited_eunits] counts
    them), a u-trace leaf on the interpreted engine ([visited_eunits]
    counts u-trace e-units). *)

type result = {
  report : Report.t;
      (** [report.answer] holds the qualifying tuples with their
          accumulated lower-bound probabilities (exact when
          [stopped_early = false]) *)
  visited_eunits : int;
  stopped_early : bool;  (** the pass ended before its last unit *)
  unvisited : float list;  (** see {!Bounded.result} *)
}

(** [undecided ~tau acc ~unvisited] the candidates of [acc] neither in
    (lower bound ≥ τ) nor out (lower bound + UB < τ). *)
val undecided : tau:float -> Answer.t -> unvisited:float -> int

(** [decided ~tau acc ~unvisited] the stop test: UB < τ and nothing
    {!undecided}. *)
val decided : tau:float -> Answer.t -> unvisited:float -> bool

(** [select ~tau acc] the candidates whose lower bound reaches τ: the
    reported answer. *)
val select : tau:float -> Answer.t -> Answer.t

(** [run ~tau ctx q ms] with [0 < tau ≤ 1].
    Raises [Invalid_argument] otherwise.  Counters and phase timers are
    recorded under the ["threshold"] scope of [metrics] (default
    {!Urm_obs.Metrics.global}). *)
val run :
  ?strategy:Eunit.strategy ->
  ?seed:int ->
  ?use_memo:bool ->
  ?metrics:Urm_obs.Metrics.t ->
  tau:float ->
  Ctx.t ->
  Query.t ->
  Mapping.t list ->
  result
