(** The possible-worlds oracle: materialise the target-schema instance one
    mapping implies (its possible world), and answer a plain target query
    world by world, giving each answer tuple the total probability of the
    mappings whose world returns it (the by-table semantics).  Apart from
    {!Urm.Reformulate.column_for}'s column naming it shares no code with
    the source-query rewriting every algorithm runs, so it checks that
    rewriting from outside.

    Each target relation is populated from the minimal source-relation
    cover of its mapped attributes (the same Case-3 construction query
    reformulation uses): one column per target attribute, [Null] where the
    mapping has no correspondence, rows deduplicated.  Target relations
    with no mapped attribute at all are left empty. *)

(** [relation ctx m target_rel] the materialised instance of one target
    relation under mapping [m].
    Raises [Not_found] for an unknown relation name. *)
val relation : Urm.Ctx.t -> Urm.Mapping.t -> string -> Urm_relalg.Relation.t

(** [catalog ctx m] materialises every target relation into a fresh
    catalog: a complete (deterministic) target instance for one possible
    world. *)
val catalog : Urm.Ctx.t -> Urm.Mapping.t -> Urm_relalg.Catalog.t

(** [world_tuples ctx q m] the distinct answer tuples of the plain query
    [q] (output attributes in {!Urm.Query.output_attrs} order) in [m]'s
    world, [\[\]] when it returns nothing.  A selection or join on an
    attribute [m] leaves unmapped compares false: the attribute is Null in
    the world, and Null equals nothing.
    Raises [Invalid_argument] on an aggregate query: COUNT and SUM have no
    world definition yet. *)
val world_tuples : Urm.Ctx.t -> Urm.Query.t -> Urm.Mapping.t -> Urm_relalg.Value.t array list

(** [answer ctx q ms] sums [Pr(m)] over the worlds: into each tuple a world
    returns, or into θ when the world's answer is empty. *)
val answer : Urm.Ctx.t -> Urm.Query.t -> Urm.Mapping.t list -> Urm.Answer.t
