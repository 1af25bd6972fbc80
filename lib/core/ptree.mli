(** The partition tree (paper §IV-A, Algorithm 3).

    A trie with one level per partition attribute of the target query; edges
    are labelled with the source attribute the mapping assigns to that level's
    target attribute (or ⊥ when unmapped), and each leaf bucket collects the
    mappings of one partition.  Mappings in the same bucket produce the same
    source query. *)

(** [partition target q ms] groups [ms] into partitions, in deterministic
    (first-insertion) order.  Every input mapping appears in exactly one
    partition. *)
val partition :
  Urm_relalg.Schema.t -> Query.t -> Mapping.t list -> Mapping.t list list

(** Naive reference implementation (group-by key vector), for tests and the
    partition-tree ablation bench. *)
val partition_naive :
  Urm_relalg.Schema.t -> Query.t -> Mapping.t list -> Mapping.t list list

(** [represent partitions] one representative mapping per partition, its
    probability the sum over the partition (the paper's [represent]
    routine). *)
val represent : Mapping.t list list -> Mapping.t list

(** [partition_by_labels key xs] generic partitioning by an arbitrary
    label function (o-sharing's per-operator grouping of partitions,
    compound queries' grouping of mappings); deterministic first-insertion
    order.  Returns the label with each group. *)
val partition_by_labels : ('a -> string) -> 'a list -> (string * 'a list) list
