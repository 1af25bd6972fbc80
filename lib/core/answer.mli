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

(** [mass w] the exact sum of the probabilities [w] as its canonical
    component list (the form of {!iter_exact}; its head is the correctly
    rounded sum, and a zero sum is empty): the mass a unit of several
    mappings adds, one addition per component, on every engine.  Adding it
    leaves every bucket the exact sum of Pr(m) over the mappings yielding
    the tuple, however the mappings were grouped into units. *)
val mass : float array -> float list

(** [round m] the correctly rounded value of a {!mass}: its head, [0.]
    for a zero sum. *)
val round : float list -> float

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

(** [compact t] removes the buckets whose exact sum is zero — tuples
    retracted by the negation of every mass they were given.  Incremental
    maintenance calls this after every mutation batch, so a patched answer
    keeps the bucket census (and the bytes) of a fresh evaluation. *)
val compact : t -> unit

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

(** [exact_of t tuple] the exact sum behind {!prob_of}, as a canonical
    component list ([[]] when absent). *)
val exact_of : t -> Urm_relalg.Value.t array -> float list

(** [equal a b] same outputs, bit-equal θ, the same number of tuples,
    and every tuple of [a] found in [b] by exact key ({!tuple_equal}) at a
    bit-equal probability.  Keys need no tolerance: a SUM key is the
    correctly rounded exact sum of its operands. *)
val equal : t -> t -> bool

(** [{"output": […], "answers": [{"tuple": […], "prob": p}, …],
    "null_prob": θ}] in {!to_list} order — deterministic, so equal answers
    render to byte-identical text. *)
val to_json : t -> Urm_util.Json.t

val pp : Format.formatter -> t -> unit
