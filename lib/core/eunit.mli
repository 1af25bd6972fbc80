(** E-units and the u-trace: the execution machinery of o-sharing
    (paper §V–§VI).

    An e-unit is a partially executed target query: a forest of materialised
    {e pieces} (source relations instantiated for target aliases, with the
    operators executed so far applied), the target operators still pending,
    and the set of (representative) mappings that agree on every operator
    executed so far.  Executing the next operator partitions the e-unit's
    mappings by how they reformulate that operator; each partition's source
    operator runs once and yields a child e-unit.  The recursion tree of
    e-units is the u-trace.

    Sharing comes from three places: (1) mappings in a partition share one
    operator execution, (2) untouched pieces are shared physically between
    sibling e-units, and (3) an optional memo table recognises identical
    (operator, input) pairs across branches of the u-trace. *)

type strategy = Random | Snf | Sef

val strategy_name : strategy -> string

(** A component of the partially-executed query. *)
type piece = {
  rel : Urm_relalg.Relation.t option;
      (** materialised result; [None] while the piece is a symbolic input
          expression (a base instance product awaiting its next operator) *)
  hint : Urm_relalg.Algebra.t;
      (** how to reference this piece in an operator expression: a pristine
          base instance keeps its [Rename(prefix, Base r)] form (so equality
          selections can use catalog indexes and memo keys stay stable), a
          lazy extension is a [Product] over such instances, and anything
          already computed is [Mat rel] *)
  aliases : string list;
  loaded : (string * string) list;  (** (alias, source relation) instances *)
}

type t = {
  pieces : piece list;
  pending : Query.op list;
  mappings : Mapping.t list list;
      (** q-sharing partitions of the e-unit's mappings; the first
          mapping of each represents it *)
}

(** Shared state of one o-sharing run. *)
type env

(** [make_env ?seed ?use_memo ?metrics ~strategy ctx q] fresh run state.
    [seed] drives the [Random] strategy only; [use_memo] (default [true])
    toggles cross-branch operator memoisation (the [abl-memo] ablation);
    [metrics] (default {!Urm_obs.Metrics.global}) is the scope that
    receives the run's counters — e-unit executions and memo hits/misses
    under ["eunit/"], engine operator counts under ["relalg/"]. *)
val make_env :
  ?seed:int ->
  ?use_memo:bool ->
  ?metrics:Urm_obs.Metrics.t ->
  strategy:strategy ->
  Ctx.t ->
  Query.t ->
  env

(** Operator/row counters of the run so far. *)
val counters : env -> Urm_relalg.Eval.counters

(** Memo hits of this run so far — counted per environment, so runs that
    share a metrics registry each report their own (the registry's
    ["eunit/memo_hits"] counter keeps the running total). *)
val memo_hits : env -> int

(** [set_tracer env f] installs a trace sink: [f] receives one formatted
    line per u-trace event (operator selection, partition branching, leaf
    emission) — the "explain" facility for o-sharing runs. *)
val set_tracer : env -> (string -> unit) -> unit

(** Number of e-units this run has created so far (root included),
    counted per environment like {!memo_hits}. *)
val eunits_created : env -> int

(** [init q partitions] the root e-unit: the full pending operator list,
    no pieces, all of q-sharing's partitions ({!Qsharing.partitions}). *)
val init : Query.t -> Mapping.t list list -> t

(** A leaf of the u-trace: what one fully-executed e-unit contributes. *)
type leaf =
  | Tuples of Urm_relalg.Value.t array list * float list
      (** distinct target tuples over the query's output header, and the
          exact probability mass of every mapping in the e-unit's
          partitions, as {!Answer.mass} components *)
  | Null_answer of float list  (** θ with its mass *)

(** [run_qt env u ~emit] recursively evaluates the u-trace rooted at [u]
    (paper Algorithm 2).  [emit] is called on every leaf; returning [false]
    aborts the remaining traversal (used by top-k's early termination).
    Returns [false] iff the traversal was aborted.

    Child partitions are visited in decreasing probability-mass order. *)
val run_qt : env -> t -> emit:(leaf -> bool) -> bool

(** [mass u] total probability of [u.mappings]. *)
val mass : t -> float
