(** Evaluation context: the source instance, the two schemas, and the
    query-execution engine.

    The context owns a {!Urm_relalg.Compile.env} (per-catalog statistics +
    compile counters) and a {!Urm_relalg.Plan_cache.t}, so every algorithm
    that evaluates through {!eval} compiles each distinct query shape once
    and executes it per mapping.  The engine defaults to [Vectorized]
    (compiled plans executed in batches over typed column vectors); pass
    [~engine:Interpreted] (CLI: [--engine interpreted]) for the
    tree-walking evaluator, the reference oracle.  Both produce identical
    answers.

    Beside the plan cache the context memoises, per query shape
    ({!Query.shape}) and mapping list, the q-sharing partition and the
    query's dependency relations ({!partitioning}): both are fixed by the
    attributes a query names and by the mappings, never by its selection
    constants, so a request that differs from an earlier one only in
    constants partitions nothing. *)

(** One memo entry: the q-sharing partition of [mappings]
    ({!Ptree.partition}, first-insertion order) and the stored relations
    the query reads under them (unprobed reformulation, see
    {!Ptree.shared}). *)
type partitioning = {
  mappings : Mapping.t list;  (** the list the entry was computed for *)
  partition : Mapping.t list list;
  deps : string list;
}

type partitionings

type t = {
  catalog : Urm_relalg.Catalog.t;  (** the source instance D *)
  source : Urm_relalg.Schema.t;
  target : Urm_relalg.Schema.t;
  engine : Urm_relalg.Compile.engine;
  compile_env : Urm_relalg.Compile.env;
  plans : Urm_relalg.Plan_cache.t;
  partitionings : partitionings;
      (** bounded LRU (256 shapes) of {!partitioning}s *)
}

val make :
  ?engine:Urm_relalg.Compile.engine ->
  catalog:Urm_relalg.Catalog.t ->
  source:Urm_relalg.Schema.t ->
  target:Urm_relalg.Schema.t ->
  unit ->
  t

val engine : t -> Urm_relalg.Compile.engine

(** [with_catalog t cat] the same context evaluating over [cat] — the
    versioned-catalog commit path.  The plan cache, the partitioning memo
    and the compile env are shared with [t] (partitions and dependency
    sets read no data): plans bind [Base] leaves at execution time, so they
    stay valid across copy-on-write catalog versions (which never change a
    relation's header), and the memoized hash-join build tables key on the
    catalog's {!Urm_relalg.Catalog.id}, so a new version automatically
    rebuilds its own and an old one is not kept alive by them.
    Compile-time cardinality statistics keep describing [t]'s instance. *)
val with_catalog : t -> Urm_relalg.Catalog.t -> t

(** [eval ?ctrs t e] evaluates [e] through the context's engine.
    [Vectorized] looks the plan up in the context's plan cache
    (expressions embedding [Mat] nodes compile uncached — their
    fingerprints are one-shot) and executes it; [Interpreted] is
    {!Urm_relalg.Eval.eval}.  Both engines feed the same operator
    counters. *)
val eval :
  ?ctrs:Urm_relalg.Eval.counters -> t -> Urm_relalg.Algebra.t -> Urm_relalg.Relation.t

(** [eval_batches ?ctrs t e] = [(header, drive)]: [drive f] invokes [f]
    once per result {!Urm_relalg.Column.batch} (same rows and order as
    {!eval}).  [Vectorized] streams out of the plan pipeline without
    materialising a relation — the fused evaluate-and-accumulate path;
    [Interpreted] evaluates eagerly at the call and replays the relation.
    Batches are only valid during the callback. *)
val eval_batches :
  ?ctrs:Urm_relalg.Eval.counters ->
  t ->
  Urm_relalg.Algebra.t ->
  string list * ((Urm_relalg.Column.batch -> unit) -> unit)

(** [eval_wbatches ?ctrs t e ~weights] like {!eval_batches} but every
    batch is wrapped in {!Urm_relalg.Column.weighted} carrying [weights] —
    the Pr(mᵢ) mass vector of the mappings whose reformulation contains
    [e].  The factorized multi-mapping executor's entry point: one plan
    execution serves every mapping in the vector. *)
val eval_wbatches :
  ?ctrs:Urm_relalg.Eval.counters ->
  t ->
  Urm_relalg.Algebra.t ->
  weights:float array ->
  string list * ((Urm_relalg.Column.weighted -> unit) -> unit)

(** Emptiness test; products short-circuit without materialising either
    side on both engines. *)
val nonempty : ?ctrs:Urm_relalg.Eval.counters -> t -> Urm_relalg.Algebra.t -> bool

(** [(hits, misses, evictions)] of the context's plan cache. *)
val plan_stats : t -> int * int * int

(** [partitioning t q ms compute] the memo entry of [q]'s shape under
    [ms], running [compute ()] for its [(partition, deps)] on a miss.  An
    entry serves only the mapping list it was computed for, compared
    physically ([==]): mapping lists are immutable, so the same list has
    the same partition, and the entry keeps its list alive, so no other
    list can take its address.  A committed data-only batch keeps its
    snapshot's list; a reweight, prune or added mapping builds a new one
    and misses.  Thread-safe; [compute] runs outside the lock.  Callers go
    through {!Ptree.shared}. *)
val partitioning :
  t ->
  Query.t ->
  Mapping.t list ->
  (unit -> Mapping.t list list * string list) ->
  partitioning

(** [(hits, misses)] of the context's partitioning memo. *)
val partitioning_stats : t -> int * int
