(** Maintained probabilistic answers: delta evaluation over the versioned
    catalog.

    A state pins one query's fully-evaluated answer together with the
    per-shape decomposition that produced it: every exact algorithm of the
    paper computes  answer = Σ_shapes weight(shape) · tuples(shape), where
    a shape is one distinct reformulation ({!Urm.Reformulate.key}) and its
    weight the exact summed probability of the mappings sharing it.  Keeping the
    decomposition live makes the answer patchable:

    - data mutations touch only shapes whose body (or aggregate factor)
      reads a mutated relation — untouched shapes cost nothing;
    - insert-only batches on non-aggregate shapes take the monotone delta
      path ({!Delta.candidates}): new tuples join the shape at its weight;
    - deletes and aggregates re-evaluate just the touched shapes and patch
      the answer by the set difference;
    - probability reweights/prunes/adds patch bucket masses directly,
      evaluating at most the newly-added shape.

    A shape's weight is the exact sum of its members' probabilities
    ({!Urm.Answer.mass}); a tuple gains or loses exactly that weight, and
    a reweight or prune adds the exact difference.  Every bucket therefore
    holds the exact sum a fresh evaluation gives it, a retracted one sums
    to exactly zero, and after every batch {!Urm.Answer.compact} drops
    those zeros (keeping the zero buckets of tuples a zero-weight shape
    still yields, as a fresh evaluation does) — the maintained answer
    renders a fresh basic evaluation's bytes at the same epoch. *)

type t

(** [build snap q] evaluates [q] over the snapshot — one reformulation per
    q-sharing partition, one evaluation per distinct shape, e-basic
    style — and records the decomposition. *)
val build : Vcatalog.snapshot -> Urm.Query.t -> t

(** [apply ?metrics t entry] patches the state across one committed batch.
    The state must be at [entry.pre.epoch] (raises [Invalid_argument]
    otherwise); afterwards it is at [entry.post.epoch].  Counts
    [incr/shapes.delta], [incr/shapes.reeval] and [incr/shapes.skipped]
    under [metrics] (default {!Urm_obs.Metrics.global}). *)
val apply : ?metrics:Urm_obs.Metrics.t -> t -> Vcatalog.entry -> unit

(** [catch_up ?metrics vcat t] brings the state to the catalog head:
    [`Current] (already there), [`Patched] (replayed the missed batches
    from the history), or [`Rebuilt] (history no longer reaches the
    state's epoch — returns a fresh {!build} of the head). *)
val catch_up :
  ?metrics:Urm_obs.Metrics.t ->
  Vcatalog.t ->
  t ->
  t * [ `Current | `Patched | `Rebuilt ]

(** The maintained answer.  Owned by the state: callers must not mutate it,
    and must serialise reads against concurrent {!apply}/{!catch_up}. *)
val answer : t -> Urm.Answer.t

val epoch : t -> int
val query : t -> Urm.Query.t

(** Number of live distinct shapes. *)
val shape_count : t -> int

(** [query_deps snap q] the stored relations [q] can read through any
    mapping of the snapshot (reformulation only, no evaluation), in
    first-seen order — the dependency set the service keys selective
    cache invalidation on.  It is the snapshot context's memo entry for
    [q]'s shape and the snapshot's mapping list ({!Urm.Ptree.shared}):
    computed on the first request of a shape, from one unprobed
    reformulation per q-sharing partition, and reused by every later one
    until a mapping mutation replaces the list.  Selection constants
    change neither the partition nor an unprobed reformulation's
    relations.  The reformulation is unprobed on purpose: the selection
    probe ({!Urm.Reformulate.selection_probe}) would make a selection
    whose constant the source lacks [Unsatisfiable] and drop its
    relation, so an insert of that constant would leave a stale cached
    θ. *)
val query_deps : Vcatalog.snapshot -> Urm.Query.t -> string list
