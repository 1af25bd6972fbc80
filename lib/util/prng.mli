(** Deterministic pseudo-random number generation.

    Every stochastic component of the library (data generation, matcher
    noise, the [Random] operator-selection strategy) draws from an explicit
    {!t} so that experiments are reproducible bit-for-bit from a seed.  The
    generator is SplitMix64 (Steele et al., OOPSLA 2014): tiny state, good
    statistical quality, and cheap independent streams via {!split}. *)

type t

(** [create seed] makes a fresh generator from a 64-bit seed. *)
val create : int -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)
val split : t -> t

(** [next t] is the next raw 64-bit output. *)
val next : t -> int64

(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0]. *)
val int : t -> int -> int

(** [in_range t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)
val in_range : t -> int -> int -> int

(** [float t] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [bool t p] is [true] with probability [p]. *)
val bool : t -> float -> bool

(** [pick t arr] is a uniformly random element of [arr].
    Requires [arr] non-empty. *)
val pick : t -> 'a array -> 'a

(** [pick_list t l] is a uniformly random element of [l].
    Requires [l] non-empty. *)
val pick_list : t -> 'a list -> 'a

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [zipf t ~n ~theta] draws a rank in [\[1, n\]] from a Zipf distribution
    with skew [theta] ([theta = 0.] is uniform).  O(n) per draw; prefer
    {!Zipf} for repeated sampling. *)
val zipf : t -> n:int -> theta:float -> int

(** Precomputed Zipf sampler: O(n) setup, O(log n) per draw. *)
module Zipf : sig
  type prng := t
  type t

  val create : n:int -> theta:float -> t

  (** [draw z rng] is a rank in [\[1, n\]]. *)
  val draw : t -> prng -> int
end
