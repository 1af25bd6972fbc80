(** Anytime approximate evaluation: one {!Bounded} pass, stopped as soon
    as its deterministic bounds answer the request.

    After the heaviest units are visited, a tuple's exact probability lies
    in [lower bound, lower bound + U], with U the mass of the units not
    yet visited (paper §VII).  Both ends come from exact sums, the upper
    one rounded once from the lower bound's exact sum plus U's, so every
    reported interval contains the exact probability with no slack and no
    confidence level.  Three modes share the pass:

    - {!Estimate}[ ε]: stop once U ≤ 2ε, so every interval is at most 2ε
      wide (one rounding aside); ε = 0 visits every unit and reports the
      exact answer;
    - {!Top}[ k]: stop on {!Topk.proven}; the answer is {!Topk.select}'s;
    - {!Above}[ τ]: stop on {!Threshold.decided}; the answer is
      {!Threshold.select}'s.

    Every mode also stops, checked once per unit, when an optional
    wall-clock [deadline] has passed. *)

type mode =
  | Estimate of float  (** ε ≥ 0: the target interval half-width *)
  | Top of int  (** k > 0 *)
  | Above of float  (** τ ∈ (0, 1] *)

type stop_reason =
  | Converged  (** the mode's stop test held, or every unit was visited *)
  | Deadline_reached

val stop_reason_name : stop_reason -> string

type result = {
  mode : mode;
  report : Report.t;  (** [answer]: the mode's tuples at their lower bounds *)
  intervals : (Urm_relalg.Value.t array * (float * float)) list;
      (** the first [limit] tuples of [answer] in {!Answer.to_list} order
          (lower bound descending, then tuple), each with its [lo, hi] *)
  null_interval : float * float;  (** θ's bounds *)
  unvisited : float;
      (** U, correctly rounded: the upper bound on any tuple never seen *)
  units : int;  (** units visited (u-trace e-units on the interpreted engine) *)
  stopped_early : bool;  (** the pass ended before its last unit *)
  stop_reason : stop_reason;
  undecided : int;
      (** {!Above} only: candidates still straddling τ — 0 whenever the
          run converged *)
}

(** [validate ?deadline mode] raises [Invalid_argument] on ε < 0, k ≤ 0,
    τ ∉ (0, 1] or a deadline ≤ 0. *)
val validate : ?deadline:float -> mode -> unit

(** [run ?deadline ?limit ?metrics mode ctx q ms].  [deadline] is in
    seconds from the start of the run; [limit] (default all) is how many
    tuples get an interval, selected as {!Answer.top_k} does.  Counters and
    phase timers go under the ["approx"] scope of [metrics] (default
    {!Urm_obs.Metrics.global}), with one ["stop.<reason>"] count per run.
    Raises [Invalid_argument] as {!validate} does. *)
val run :
  ?deadline:float ->
  ?limit:int ->
  ?metrics:Urm_obs.Metrics.t ->
  mode ->
  Ctx.t ->
  Query.t ->
  Mapping.t list ->
  result

(** [fields r] the reply fields the service and [urm approx] share:
    ["mode"], ["k"] or ["tau"] and ["undecided"] by mode, ["shapes"] (units
    visited), ["stop_reason"], ["stopped_early"], ["unseen_hi"] (U),
    ["null_interval"], ["size"], and [r.intervals] as ["answers"] and
    ["intervals"]. *)
val fields : result -> (string * Urm_util.Json.t) list
