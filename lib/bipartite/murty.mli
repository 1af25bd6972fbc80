(** Murty's ranking algorithm (1968): enumerate the k best assignments in
    non-increasing order of total weight.

    The paper derives its set of h possible mappings by running "a bipartite
    matching algorithm [10],[9]" that returns the h mappings with the highest
    similarity scores; this module is that component.  Partial matchings are
    supported by treating non-positive weights as absent edges: internally
    the n × m weight matrix is padded to a square N = n + m problem, with
    zero-cost slots that let any row stay unmatched and dummy rows that take
    the columns no row does; dummy and zero assignments are dropped from the
    reported pairs.

    Only the root is solved from scratch (N {!Hungarian.augment} calls).
    Each child of Murty's partition is reoptimised as in Miller, Stone &
    Cox ("Optimizing Murty's ranked assignment method", IEEE TAES 33(3),
    1997): it starts from a copy of its parent's potentials and assignment,
    its constraints only raise costs, and freeing the one branched row
    leaves one shortest augmenting path to find — O(N²) per child instead
    of a full O(N³) solve.  A search node keeps O(N) state (potentials,
    assignment, the branched row's banned columns), never a cost matrix. *)

type assignment = {
  pairs : (int * int) list;  (** matched (row, col) pairs, real edges only *)
  score : float;  (** total weight of [pairs] *)
}

(** [k_best ~weights ~k] the up-to-[k] best assignments, best first, with
    strictly distinct pair sets.  [weights.(i).(j) <= 0.] means "no edge".
    Rows and columns may be of any relative size.  [score] sums the
    weights of [pairs] in row order from [0.], so equal pair sets have
    equal score bits.

    Ties: assignments of equal score come out in discovery order, the
    order in which the search finds and queues them (children in ascending
    row order, on a binary heap keyed on score alone).  It is
    deterministic for given weights, though not lexicographic. *)
val k_best : weights:float array array -> k:int -> assignment list
