(** Evaluator for {!Algebra.t} expressions over a {!Catalog.t}.

    The evaluator applies a light logical optimisation before execution —
    conjunct splitting, selection pushdown through products and joins, and
    conversion of equi-selections over products into hash joins — and uses
    catalog hash indexes for equality selections on stored relations.  All
    query-answering algorithms in the core library share this evaluator, so
    their relative performance is not an artefact of differing engines.

    The operator counters feed the paper's Table IV ("# source operators
    executed"). *)

(** Pre-resolved {!Urm_obs.Metrics} handles (per-operator-kind counts,
    index probes vs scans, rows materialised) shared by all operators of
    one run; see DESIGN.md "Metrics & observability" for the names. *)
type op_metrics

type counters = {
  mutable operators : int;  (** operator executions *)
  mutable rows_produced : int;  (** total rows output by all operators *)
  m : op_metrics;
}

(** [fresh_counters ?metrics ()] zeroed counters whose observability
    handles live under [metrics ^ "/relalg"] ([metrics] defaults to
    {!Urm_obs.Metrics.global}; algorithms pass their own named scope so a
    single run yields a per-algorithm breakdown). *)
val fresh_counters : ?metrics:Urm_obs.Metrics.t -> unit -> counters

(** [eval ?ctrs ?optimize cat e] evaluates [e] against [cat].
    [optimize] defaults to [true].  Raises [Not_found] for unknown base
    relations or columns. *)
val eval : ?ctrs:counters -> ?optimize:bool -> Catalog.t -> Algebra.t -> Relation.t

(** Inferred output header of an expression (without evaluating it). *)
val cols_of : Catalog.t -> Algebra.t -> string list

(** The optimisation pass alone, exposed for tests and for the MQO planner's
    cost model. *)
val optimize : Catalog.t -> Algebra.t -> Algebra.t

(** [strip_prefix p col] removes a rename prefix ["p#"] from [col] if
    present ([strip_prefix "a" "a#x" = Some "x"]). *)
val strip_prefix : string -> string -> string option

(** [nonempty ?ctrs cat e] whether [e] has at least one row, without
    materialising Cartesian products (a product is non-empty iff both sides
    are). *)
val nonempty : ?ctrs:counters -> Catalog.t -> Algebra.t -> bool

(** {2 Accounting hooks for the plan engine}

    {!Plan} executes closures rather than algebra nodes, so it records
    operator executions through these hooks instead of the evaluator's
    internal helpers — both engines feed the same counters. *)

type op_kind =
  | Op_select
  | Op_project
  | Op_distinct
  | Op_product
  | Op_join
  | Op_aggregate
  | Op_groupby

type access_path = Index_probe | Scan

(** [record_op ctrs kind ~rows] accounts one executed operator of [kind]
    that produced [rows] rows.  No-op when [ctrs] is [None]. *)
val record_op : counters option -> op_kind -> rows:int -> unit

(** Account a selection's access-path decision (index probe vs scan). *)
val record_access : counters option -> access_path -> unit
