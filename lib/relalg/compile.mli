(** Compiling {!Algebra.t} expressions to physical {!Plan.t}s.

    Runs the shared logical optimiser ({!Eval.optimize}), then lowers the
    tree into a push-based closure pipeline with all physical decisions
    made once: column names resolved to integer positions, σ/π fused into
    their producers, a cost-based greedy left-deep join order driven by
    {!Stats_est}, the hash-join build on the estimated-smaller input, and
    single-pass aggregates/group-by.  See DESIGN.md "Plan execution &
    plan cache". *)

(** The execution-engine knob carried by [Urm.Ctx].  [Interpreted] is the
    tree-walking evaluator, kept as the reference oracle; [Vectorized] (the
    default) compiles plans and executes them through {!Column.batch}es —
    typed vectors and selection vectors. *)
type engine = Interpreted | Vectorized

val engine_name : engine -> string

(** Parses ["interpreted"] / ["vectorized"] (the CLI's [--engine]
    values). *)
val engine_of_string : string -> (engine, string) result

(** A compilation environment: one per catalog.  Caches the column
    statistics ({!Stats_est.build} runs once, lazily, under a mutex) and
    carries the [relalg/compile.*] observability handles
    ([compile.plans], [compile.stats_builds], [compile.seconds]). *)
type env

val create_env : ?metrics:Urm_obs.Metrics.t -> Catalog.t -> env

(** [compile env e] optimises and lowers [e].  The resulting plan reads
    base relations through the catalog at execution time, so it can be
    executed repeatedly (and concurrently).  Raises [Not_found] when [e]
    references unknown relations or columns, like the interpreter. *)
val compile : env -> Algebra.t -> Plan.t
