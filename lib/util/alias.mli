(** Walker-Vose alias tables: sampling from a discrete distribution in O(1)
    per draw after O(n) construction.

    The weighted sampler of the repository: [lib/anytime]'s budgeted
    estimator samples mappings weighted by [Pr(mi)] through it,
    deterministically from an explicit {!Prng.t}. *)

type t

(** [create weights] builds the table.  Weights need not be normalised;
    they must be non-negative with a positive sum.
    Raises [Invalid_argument] otherwise (or when empty). *)
val create : float array -> t

(** Number of outcomes. *)
val length : t -> int

(** [draw t rng] an index in [\[0, length t)], distributed proportionally
    to the construction weights.  Consumes exactly two PRNG draws. *)
val draw : t -> Prng.t -> int
