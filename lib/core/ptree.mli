(** The partition tree (paper §IV-A, Algorithm 3).

    A trie with one level per partition attribute of the target query; edges
    are labelled with the source attribute the mapping assigns to that level's
    target attribute (or ⊥ when unmapped), and each leaf bucket collects the
    mappings of one partition.  Mappings in the same bucket produce the same
    source query. *)

(** [partition target q ms] groups [ms] into partitions, in first-insertion
    order (ordered by each partition's first member in [ms]; members keep
    their order in [ms]).  Every input mapping appears in exactly one
    partition. *)
val partition :
  Urm_relalg.Schema.t -> Query.t -> Mapping.t list -> Mapping.t list list

(** Naive reference implementation (group-by key vector), for tests and the
    partition-tree ablation bench. *)
val partition_naive :
  Urm_relalg.Schema.t -> Query.t -> Mapping.t list -> Mapping.t list list

(** [shared ctx q ms] {!partition}[ ctx.target q ms] and [q]'s dependency
    relations under [ms], memoised in [ctx] per query shape and mapping
    list ({!Ctx.partitioning}).  The dependencies are the first-seen union
    over the {!representatives} of their {!Reformulate.body_relations}
    and [factor_rels]: every stored relation the query can read through
    any mapping, in the per-mapping loop's order.  Both are fixed by the
    shape, so a hit computed for other selection constants is exact: the
    tree's levels read only the referenced attributes and the aggregate
    covers, and an unprobed reformulation decides [Unsatisfiable] only
    from unmapped attributes and takes its relations from the covers.  The
    reformulation is unprobed on purpose: the selection probe
    ({!Reformulate.selection_probe}) would make a selection whose constant
    the source lacks [Unsatisfiable] and drop its relation, so a cached
    answer would miss the insert of that constant.  Two spellings of one
    query ({!Query.canonical}) share an entry, so the dependency order is
    the first spelling's; as a set it is every spelling's. *)
val shared : Ctx.t -> Query.t -> Mapping.t list -> Ctx.partitioning

(** [representatives ctx q ms] one unprobed reformulation
    ({!Reformulate.source_query} without [holds]) per partition of
    {!shared}, through its first member, paired with the partition's
    members, in partition order.  Exact for every member: the levels label
    each mapping by the source of every referenced target attribute and,
    for aggregates, each unreferenced alias's cover — every input of the
    reformulation — so all members share its {!Reformulate.key}, base
    relations and [factor_rels], and the keys' first-seen order over the
    partitions is their first-seen order over [ms].  Callers that need
    every mapping's reformulation pay one per partition instead of one per
    mapping; a memo miss reuses the reformulations it made for the
    dependency set. *)
val representatives :
  Ctx.t -> Query.t -> Mapping.t list -> (Reformulate.t * Mapping.t list) list

(** [represent partitions] one representative mapping per partition, its
    probability the sum over the partition (the paper's [represent]
    routine). *)
val represent : Mapping.t list list -> Mapping.t list

(** [partition_by_labels key xs] generic partitioning by an arbitrary
    label function (o-sharing's per-operator grouping of partitions,
    compound queries' grouping of mappings); deterministic first-insertion
    order.  Returns the label with each group. *)
val partition_by_labels : ('a -> string) -> 'a list -> (string * 'a list) list
