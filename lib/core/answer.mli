(** Probabilistic query answers: a set of (tuple, probability) pairs over
    the target output attributes, plus the probability mass of the empty
    answer θ (paper §V, Case 2).

    Tuples are over the target schema — each position is the value of one
    output target attribute, [Null] where the mapping had no correspondence
    — so answers produced under different mappings aggregate correctly
    (duplicates sum their probabilities). *)

type t

(** [create output] an empty accumulator with the given output labels. *)
val create : string list -> t

val output : t -> string list

(** [add t tuple p] accumulates probability [p] onto [tuple].
    Requires arity to match [output]. *)
val add : t -> Urm_relalg.Value.t array -> float -> unit

(** [add_null t p] accumulates probability onto θ. *)
val add_null : t -> float -> unit

(** [vec_mass w] the collapsed probability mass of a mapping weight
    vector, summed left to right — the same accumulation order as the
    per-mapping incremental sum, so collapsing is bit-identical to adding
    each mapping's probability in ascending mapping order. *)
val vec_mass : float array -> float

(** [add_vec t tuple w] the bulk weighted-accumulate entry point of the
    factorized executor: folds the whole weight vector [w] into [tuple]'s
    bucket with a single addition of {!vec_mass}[ w] — one call replaces
    the h per-mapping {!add}s of a non-factorized evaluation. *)
val add_vec : t -> Urm_relalg.Value.t array -> float array -> unit

(** [add_id t tuple p] like {!add}, but returns the tuple's bucket id so
    further probability can be replayed with {!bump} — the engines'
    per-reformulation answer memo.  Ids are dense insertion indices, stay
    valid for the answer's lifetime, and are never reassigned (not even by
    {!compact}). *)
val add_id : t -> Urm_relalg.Value.t array -> float -> int

(** [bump t id p] accumulates [p] onto the bucket behind [id] (from
    {!add_id}) — an unboxed array update, the replay fast path. *)
val bump : t -> int -> float -> unit

(** [reserve t n] pre-sizes the bucket table for [n] further insertions, so
    a bulk insert pass of known size pays one redistribution instead of
    log₂ n doublings. *)
val reserve : t -> int -> unit

(** [tuple_equal a b] bucket-identity equality of answer tuples — the
    exact equivalence [add] uses to coalesce buckets (so nan = nan and
    -0. = 0., as under polymorphic comparison). *)
val tuple_equal : Urm_relalg.Value.t array -> Urm_relalg.Value.t array -> bool

(** [merge_into t other] sums [other]'s tuple probabilities and θ mass into
    [t].  Merging per-unit partial answers in ascending unit order
    reproduces the sequential accumulation order exactly, whatever order
    the parts were computed in.  Raises [Invalid_argument] when the outputs
    differ. *)
val merge_into : t -> t -> unit

val null_prob : t -> float

(** [compact ?eps t] removes buckets whose accumulated probability is within
    [eps] (default {!Prob.eps}) of zero and clamps an eps-negative θ back to
    0.  Incremental maintenance calls this after every mutation batch: a
    retracted tuple's bucket holds only float cancellation residue, and
    dropping it restores the bucket census a fresh evaluation would
    produce, so {!equal} keeps holding under repeated add/subtract
    cycles. *)
val compact : ?eps:float -> t -> unit

(** Distinct tuples with their probabilities, sorted by probability
    descending (ties broken by tuple order, deterministically). *)
val to_list : t -> (Urm_relalg.Value.t array * float) list

(** [iter f t] calls [f tuple p] on every distinct tuple, in no particular
    order (θ excluded) — the unsorted counterpart of {!to_list}. *)
val iter : (Urm_relalg.Value.t array -> float -> unit) -> t -> unit

(** [top_k t k] the k most probable tuples (θ excluded): the first [k]
    elements of {!to_list}, selected with a size-[k] heap so only those
    [k] are sorted. *)
val top_k : t -> int -> (Urm_relalg.Value.t array * float) list

(** Number of distinct tuples (θ excluded). *)
val size : t -> int

(** Total probability mass including θ. *)
val total_prob : t -> float

(** [prob_of t tuple] the accumulated probability of [tuple] ([0.] when
    absent). *)
val prob_of : t -> Urm_relalg.Value.t array -> float

(** [equal ?eps a b] same outputs, same θ mass, and a one-to-one matching
    of [a]'s tuples onto [b]'s buckets (exact keys first, then approximate
    — float aggregate keys may differ across summation orders) with
    probabilities within [eps] (default {!Prob.eps}).  Each bucket of [b]
    is consumed by at most one tuple of [a], so the check is symmetric. *)
val equal : ?eps:float -> t -> t -> bool

(** [{"output": […], "answers": [{"tuple": […], "prob": p}, …],
    "null_prob": θ}] in {!to_list} order — deterministic, so equal answers
    render to byte-identical text. *)
val to_json : t -> Urm_util.Json.t

val pp : Format.formatter -> t -> unit
