(** Physical query plans: push-based closure pipelines over pre-resolved
    integer column positions.

    {!Compile} lowers an optimised {!Algebra.t} once into a plan; the plan
    is then executed many times (once per mapping in the paper's
    algorithms).  Plans are immutable and re-entrant — all per-execution
    state (hash tables, buffers, aggregate accumulators) is allocated
    inside {!execute} — so one plan may be executed concurrently from
    several domains.

    Every operator pushes {!Column.batch}es: typed vectors plus a selection
    vector, so predicates run as tight loops over unboxed data and
    selections narrow the selection vector without copying.  Each operator
    also carries a short-circuiting emptiness check ({!nonempty}) that
    stops at the first qualifying row.

    Base relations are parameters resolved through the catalog at execution
    time, which is what makes a plan reusable across the [h] reformulated
    queries of one shape and lets {!Plan_cache} share it. *)

type env = { cat : Catalog.t; ctrs : Eval.counters option }
type bsink = Column.batch -> unit

(** One operator of a plan: a header plus a push-based batch stream.
    Exposed concretely for {!Compile}; other clients should treat pipes as
    opaque and use {!t}. *)
type pipe = {
  cols : string list;
  biter : env -> bsink -> unit;
  stored : (env -> Relation.t) option;
  check : env -> bool;
  desc : string;
}

(** {2 Constructors (used by {!Compile})} *)

(** Stored relation, looked up in the catalog at execution time; batches
    stream straight off the relation's memoised typed columns. *)
val scan : name:string -> cols:string list -> pipe

(** Already-materialised intermediate ([Algebra.Mat]). *)
val const : Relation.t -> pipe

(** σ[col = value] over a stored relation via the catalog hash index
    (falls back to a scan inside {!Catalog.lookup} when indexing is
    disabled). *)
val index_probe : name:string -> col:string -> value:Value.t -> cols:string list -> pipe

(** Fused selection: narrows the parent's selection vectors through a
    compiled predicate, never materialising.  [bpred] is the batch form —
    given a batch it returns a test over absolute row indices (a tight loop
    over typed vectors when {!Compile} can specialise it); when absent it
    is derived from the row predicate [pred]. *)
val filter :
  ?bpred:(Column.batch -> int -> bool) -> pred:(Value.t array -> bool) -> pipe -> pipe

(** Fused projection onto the given positions of the input row; batches
    remap the vector array without touching row data. *)
val project : positions:int array -> cols:string list -> pipe -> pipe

(** Header-only relabelling (a rename is free at execution time). *)
val with_cols : string list -> pipe -> pipe

(** Hash-based duplicate elimination, first-appearance order. *)
val distinct : pipe -> pipe

(** [hash_join ~build_left ~lkey ~rkey ~residual l r]: equi-join with the
    hash table built on [l] when [build_left] (the cost model picks the
    estimated-smaller side) and probed with the other side.  Output columns
    are always [l.cols @ r.cols].  [residual] filters the combined row.
    The build table is memoised across executions. *)
val hash_join :
  build_left:bool ->
  lkey:int ->
  rkey:int ->
  residual:(Value.t array -> bool) option ->
  pipe ->
  pipe ->
  pipe

(** Nested-loop Cartesian product; the right side is columnised once and
    each left row broadcasts as constant vectors over the right chunks. *)
val nl_product : pipe -> pipe -> pipe

(** [guard gs inner] is [inner] gated on every guard being non-empty — the
    emptiness tests of the distinct-projection factorisation. *)
val guard : pipe list -> pipe -> pipe

(** Single-pass aggregate state over a pre-resolved column position. *)
type agg_spec = Count_spec | Sum_spec of int

(** One-row aggregate ([col] is the output column name). *)
val aggregate : spec:agg_spec -> col:string -> pipe -> pipe

(** Hash grouping (first-appearance output order), folding each group's
    aggregate as rows stream by. *)
val group_by : key_pos:int array -> spec:agg_spec -> cols:string list -> pipe -> pipe

(** {2 Complete plans} *)

type t

val of_pipe : header:string list -> pipe -> t

(** The header {!execute}'s result carries. *)
val header : t -> string list

(** One-line physical-operator tree, e.g.
    ["hash_join[build=left](scan(S), σ(scan(R)))"] — unit tests assert on
    build-side choices through this. *)
val describe : t -> string

(** [execute ?ctrs cat t] runs the plan against [cat], accounting operator
    executions into [ctrs] exactly like the interpreted evaluator. *)
val execute : ?ctrs:Eval.counters -> Catalog.t -> t -> Relation.t

(** [iter_batches ?ctrs cat t ~f] streams the result as {!Column.batch}es
    (the rows of {!execute}, in the same order) without materialising a
    relation.  A batch is only valid during the callback — consumers must
    not retain its selection array. *)
val iter_batches :
  ?ctrs:Eval.counters -> Catalog.t -> t -> f:(Column.batch -> unit) -> unit

(** [iter_wbatches ?ctrs cat t ~weights ~f] the batch stream of
    {!iter_batches} with every batch wrapped in {!Column.weighted},
    carrying the producing e-unit's mapping-mass vector.  One execution
    serves every mapping in [weights] — the factorized multi-mapping
    executor's entry point. *)
val iter_wbatches :
  ?ctrs:Eval.counters ->
  Catalog.t ->
  t ->
  weights:float array ->
  f:(Column.weighted -> unit) ->
  unit

(** Short-circuiting emptiness test with accounting suppressed: probes
    leave [ctrs] untouched.  Filters and hash-join probes stop at the first
    qualifying row, not at the first full batch. *)
val nonempty : ?ctrs:Eval.counters -> Catalog.t -> t -> bool
