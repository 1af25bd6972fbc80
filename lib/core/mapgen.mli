(** Generation of the possible-mapping set (paper §II / §VIII-A): run the
    matcher over the two schemas, then rank the h best one-to-one partial
    matchings with Murty's algorithm, and normalise their total similarity
    scores into probabilities. *)

(** [weights cands] the score matrix Murty ranks: target attributes
    (rows) and source attributes (columns), each sorted, and for each pair
    the best candidate score, [0.] where there is none. *)
val weights :
  Urm_matcher.Match.candidate list -> string array * string array * float array array

(** [from_candidates ~h cands] the up-to-[h] best mappings derivable from
    the matcher's correspondence candidates.  Zero-score (empty) matchings
    are dropped; probabilities are each mapping's score over the total score
    of the returned set. *)
val from_candidates : h:int -> Urm_matcher.Match.candidate list -> Mapping.t list

(** [prefix ~h ms] the first [h] mappings of a larger {!from_candidates}
    result, with probabilities recomputed from their scores exactly as
    [from_candidates ~h] computes them: the same mappings, bit for bit,
    as a fresh enumeration of [h]. *)
val prefix : h:int -> Mapping.t list -> Mapping.t list

(** [synthetic ?seed ~h cands] up to [h] distinct one-to-one mappings for
    the anytime experiments at scales (h = 10⁴..10⁶) where Murty's exact
    enumeration is too slow: the greedy rank-1 matching first, then
    randomized score-weighted variants, deduplicated structurally, with
    probabilities normalised over total score.  Deterministic from [seed];
    may return fewer than [h] when the candidate set cannot support that
    many distinct matchings. *)
val synthetic :
  ?seed:int -> h:int -> Urm_matcher.Match.candidate list -> Mapping.t list

(** [generate ?threshold ~h ~source ~target ()] full pipeline:
    matcher candidates → k-best matchings → normalised mappings. *)
val generate :
  ?threshold:float ->
  h:int ->
  source:Urm_relalg.Schema.t ->
  target:Urm_relalg.Schema.t ->
  unit ->
  Mapping.t list

(** Number of correspondences of the best (rank-1) mapping — the statistic
    the paper quotes for COMA++ (34 / 18 / 31 correspondences). *)
val top_mapping_size :
  ?threshold:float ->
  source:Urm_relalg.Schema.t ->
  target:Urm_relalg.Schema.t ->
  unit ->
  int
