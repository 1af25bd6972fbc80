(** The numeric tolerance of the paper's bounds.

    Answers sum exactly ({!Answer}): every exact algorithm, on every
    engine, gives bit-identical probabilities, and {!Answer.equal} compares
    them bit for bit.  A tolerance is left only where the paper itself
    thresholds a float bound against a float mass: top-k pruning
    ({!Topk}), threshold decisions ({!Threshold}) and the u-trace's
    "no mass left" test ({!Bounded}), which compare sums of rounded masses
    and must not decide on an ulp.  They share this one constant, so they
    agree on when two masses are "equal". *)

val eps : float
(** [1e-9]. *)
