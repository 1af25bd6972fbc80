(** Exact sums of floats as Shewchuk expansions ("Adaptive Precision
    Floating-Point Arithmetic and Fast Robust Geometric Predicates", 1997).

    An expansion is a float list whose exact (real) sum is the value it
    stands for.  {!grow} takes and returns lists in ascending magnitude,
    nonoverlapping and zero-free; {!canonical} returns the one canonical
    form of a sum, largest first: c₁ = RN(S), c₂ = RN(S − c₁), …, so equal
    sums give bit-equal lists whatever order their terms were added in.
    Terms must be finite. *)

(** [grow e x] the expansion [e] plus [x], exactly (Grow-Expansion with
    zero elimination). *)
val grow : float list -> float -> float list

(** [canonical e] the canonical expansion (largest first, [[]] for zero)
    of the exact sum of [e]; [e] may be in any order and may overlap.
    Stops at a non-finite component, so an overflow cannot loop. *)
val canonical : float list -> float list

(** [add c x] the canonical expansion of [c] plus [x], for a canonical
    [c]: one {!grow} over [c] reversed (a canonical expansion read
    smallest first is a valid one), not {!canonical}'s fold. *)
val add : float list -> float -> float list

(** [sum xs] the canonical expansion of the exact sum of [xs]. *)
val sum : float array -> float list

(** [round c] the correctly rounded (nearest-even) value of a canonical
    expansion: its head, [0.] for the empty sum. *)
val round : float list -> float
