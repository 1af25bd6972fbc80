(** Streaming and batch statistics used by the experiment harness. *)

(** Welford's online mean/variance accumulator. *)
module Welford : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  (** Sample standard deviation; [0.] with fewer than two observations. *)
  val stddev : t -> float
end

(** [mean xs] of a list; [0.] when empty. *)
val mean : float list -> float

(** [stddev xs] sample standard deviation; [0.] with fewer than two items. *)
val stddev : float list -> float

(** [percentile p xs] with [p] in [\[0,1\]], by linear interpolation on the
    sorted data.  Raises [Invalid_argument] on an empty list. *)
val percentile : float -> float list -> float

(** [percentile_or_zero p xs] like {!percentile} but total: [0.] on an
    empty list — the convention for latency windows that may not have
    filled yet (a ring with [filled = 0] reports 0, never raises, so a
    metrics roll-up over idle shards is safe). *)
val percentile_or_zero : float -> float list -> float

(** [entropy fractions] is [-Σ f log2 f] over the strictly positive entries;
    the spread measure used by the SEF strategy (Definition 1 of the paper). *)
val entropy : float list -> float

(** [histogram ~buckets xs] counts of [xs] over [buckets] equal-width bins
    spanning \[min, max\].  Raises [Invalid_argument] on an empty list or a
    non-positive bucket count. *)
val histogram : buckets:int -> float list -> int array
