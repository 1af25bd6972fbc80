(** Probabilistic query answers: a set of (tuple, probability) pairs over
    the target output attributes, plus the probability mass of the empty
    answer θ (paper §V, Case 2).

    Tuples are over the target schema — each position is the value of one
    output target attribute, [Null] where the mapping had no correspondence
    — so answers produced under different mappings aggregate correctly
    (duplicates sum their probabilities).

    Sums are exact: every bucket and θ holds the exact sum of all masses
    added to it, and every read ({!to_list}, {!iter}, {!top_k},
    {!kth_prob}, {!prob_of}, {!null_prob}, {!total_prob}, {!to_json},
    {!equal}, {!compact}) sees its correctly rounded (nearest-even) value.
    The same masses therefore give bit-identical answers whatever order
    they were added in and however they were split between answers joined
    by {!merge_into}.  Masses must be finite. *)

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
    vector: a plain float sum, left to right.  It is the one mass a unit
    adds per tuple, on every engine; it is not exact, so adding it is not
    bit-identical to adding each mapping's probability separately. *)
val vec_mass : float array -> float

(** [add_vec t tuple w] the bulk weighted-accumulate entry point of the
    factorized executor: folds the whole weight vector [w] into [tuple]'s
    bucket with a single addition of {!vec_mass}[ w] — one call replaces
    the h per-mapping {!add}s of a non-factorized evaluation. *)
val add_vec : t -> Urm_relalg.Value.t array -> float array -> unit

(** [add_id t tuple p] like {!add}, but returns the tuple's bucket id so
    further probability can be replayed with {!bump} — the engines'
    per-reformulation answer memo.  Ids are insertion indices, stay valid
    for the answer's lifetime, and are never reassigned (not even by
    {!compact}).  Allocation-free while the bucket's exact sum fits two
    floats, as probability sums in practice do. *)
val add_id : t -> Urm_relalg.Value.t array -> float -> int

(** [bump t ids p] accumulates [p] exactly onto each bucket behind [ids]
    (from {!add_id}) — unboxed array updates, the replay fast path. *)
val bump : t -> int array -> float -> unit

(** [reserve t n] pre-sizes the bucket table for [n] further insertions, so
    a bulk insert pass of known size pays one redistribution instead of
    log₂ n doublings. *)
val reserve : t -> int -> unit

(** [tuple_equal a b] bucket-identity equality of answer tuples — the
    exact equivalence [add] uses to coalesce buckets (so nan = nan and
    -0. = 0., as under polymorphic comparison). *)
val tuple_equal : Urm_relalg.Value.t array -> Urm_relalg.Value.t array -> bool

(** [merge_into t other] adds [other]'s exact tuple sums and θ sum into
    [t] — not their rounded values, so answers built over any split of the
    same additions merge, in any order, to the answer of a single pass.
    Raises [Invalid_argument] when the outputs differ. *)
val merge_into : t -> t -> unit

val null_prob : t -> float

(** [iter_exact f t] calls [f tuple e] on every distinct tuple (θ
    excluded), in no particular order, with [e] the bucket's exact sum as
    its canonical component list: largest first, [c₁] the rounded value
    and each further component the rounded rest, empty for a zero sum.
    Equal sums give bit-equal lists. *)
val iter_exact : (Urm_relalg.Value.t array -> float list -> unit) -> t -> unit

(** [null_exact t] θ's exact sum as a canonical component list. *)
val null_exact : t -> float list

(** [add_exact t tuple e] adds the exact sum of the floats [e] onto
    [tuple] (creating its bucket even when [e] is empty) — the inverse of
    {!iter_exact}.  θ's list goes back with {!add_null} per component. *)
val add_exact : t -> Urm_relalg.Value.t array -> float list -> unit

(** [compact ?eps t] removes buckets whose probability is within [eps]
    (default {!Prob.eps}) of zero and clamps an eps-negative θ back to 0.
    Incremental maintenance calls this after every mutation batch: sums
    are exact, but its shape weights are patched by float subtraction, so
    a retracted tuple's bucket can keep an ulp-sized residue; dropping it
    restores the bucket census a fresh evaluation would produce, so
    {!equal} keeps holding under repeated add/subtract cycles. *)
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

(** [kth_prob t k] the probability of the [k]-th element of {!top_k}[ t k]
    — the k-th highest bucket probability, θ excluded — or [0.] when [t]
    holds fewer than [k] tuples.  Selected with the same size-[k] heap,
    over probabilities alone, so ties cost no tuple comparisons. *)
val kth_prob : t -> int -> float

(** Number of distinct tuples (θ excluded). *)
val size : t -> int

(** Total probability mass including θ: the exact sum of every bucket,
    rounded once. *)
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
