(** Query reformulation: translating a target query into a source query
    through one mapping (the paper's §III / §VI-B, whole-query form).

    Column naming convention for source relations instantiated for a target
    alias: source relation [r] loaded for alias [A] is renamed with prefix
    ["A@r"], so its column [c] appears as ["A@r#c"].  Distinct aliases over
    the same target relation (self-joins) therefore never clash.

    Aliases referenced by no operator are not materialised: under the
    target-tuple answer semantics they contribute only row multiplicity,
    which matters solely for aggregates and is accounted for by
    [factor_rels] — the unfiltered source relations whose cardinalities
    multiply the aggregate value (DESIGN.md, semantics decision 1). *)

type body =
  | Unsatisfiable
      (** a selection/join/SUM attribute has no correspondence: the answer
          is θ (or COUNT = 0 / SUM = Null) *)
  | Trivial
      (** nothing needs evaluating: no referenced alias contributes a piece;
          the answer is θ for plain queries, the cardinality factor for
          COUNT *)
  | Expr of Urm_relalg.Algebra.t

type t = {
  body : body;
  outputs : (string * string option) list;
      (** (output label, source column); [None] = the target attribute is
          unmapped and evaluates to [Null].  For grouped aggregates the
          grouping attributes come first and the aggregate label last. *)
  aggregate : Query.agg option;
  grouped : bool;  (** the query has GROUP BY attributes *)
  factor_rels : string list;
      (** source relations of unreferenced aliases' covers (with
          multiplicity); their cardinality product scales aggregate
          values *)
}

(** Output labels in order (the target-side header of the answer). *)
val output_labels : t -> string list

(** [source_query ?holds target q m] reformulates [q] through mapping
    [m].  [holds s v] tells whether the source instance holds a row whose
    qualified source attribute [s] equals [v] (default: always).  The
    reformulation rule it feeds: a selection whose source instance holds
    no matching row is unsatisfiable, like one whose attribute is
    unmapped — the product it filters is empty, so the body becomes
    [Unsatisfiable] and the answer is the same θ / COUNT = 0 / SUM = Null
    the evaluated expression would give. *)
val source_query :
  ?holds:(string -> Urm_relalg.Value.t -> bool) ->
  Urm_relalg.Schema.t ->
  Query.t ->
  Mapping.t ->
  t

(** [selection_probe cat] a [holds] function for {!source_query} over the
    source instance [cat]: one {!Urm_relalg.Catalog.has_value} probe per
    (source attribute, constant), memoised for the lifetime of the
    returned closure (one run). *)
val selection_probe :
  Urm_relalg.Catalog.t -> string -> Urm_relalg.Value.t -> bool

(** [key sq] identity of the source query: two mappings with equal keys
    produce identical answers.  This is what e-basic deduplicates on. *)
val key : t -> string

(** [factor cat sq] the aggregate multiplicity factor: the product of the
    [factor_rels] cardinalities in the source instance ([1] when none). *)
val factor : Urm_relalg.Catalog.t -> t -> int

(** [column_for ~alias ~source_attr] the column name an instantiated source
    attribute gets (["A@rel#col"]). *)
val column_for : alias:string -> source_attr:string -> string

(** [answers_into acc sq ~factor rel p] folds the evaluation result [rel] of
    [sq] into accumulator [acc] with probability [p]: builds target tuples
    (Null for unmapped outputs), removes duplicates (set semantics per
    mapping), θ for an empty plain result, aggregate values scaled by
    [factor]. *)
val answers_into : Answer.t -> t -> factor:int -> Urm_relalg.Relation.t -> float -> unit

(** A recorded accumulation: the answer-bucket cells one evaluation of a
    reformulation touched, plus its emitted target-tuple stream, in
    emission order — the factorized executor's replay and result-stream
    memo.  Units with equal {!key}s produce identical target tuples, so the
    recording stands in for re-evaluating the shared shape. *)
type recording

(** [record_weighted_answers_into acc sq ~factor wstream ~weights
    ~candidates] the factorized executor's accumulate: streams [sq]'s
    result over the weight-vector channel ({!Urm.Ctx.eval_wbatches}) and
    folds the e-unit's whole collapsed mapping mass into each tuple's
    bucket — one plan execution for all the mappings in [weights].  The
    emitted stream is simultaneously compared against [candidates]
    (recordings of previously executed units, in execution order); on an
    exact stream match the candidate's bucket ids are replayed instead of
    re-probing the answer table, and the candidate's recording is shared.
    Returns the recording and whether it was served by a stream match. *)
val record_weighted_answers_into :
  Answer.t ->
  t ->
  factor:int ->
  string list * ((Urm_relalg.Column.weighted -> unit) -> unit) ->
  weights:float array ->
  candidates:recording list ->
  recording * bool

(** [replay_answers_into acc r p] re-applies a recording with probability
    [p]: the same buckets receive the same additions, in the same order, as
    a fresh evaluation would produce — bit-identical, without evaluating.
    [acc] must be the answer [r] was recorded against. *)
val replay_answers_into : Answer.t -> recording -> float -> unit

(** [null_answer_into acc sq ~factor p] the contribution of a mapping whose
    body is [Unsatisfiable] or [Trivial]: θ for plain queries; COUNT = 0
    (unsatisfiable) or COUNT = factor (trivial); SUM = Null. *)
val null_answer_into : Answer.t -> t -> factor:int -> float -> unit

(** [output_header q] the answer header shared by all mappings of a query
    (labels of {!Query.output_attrs}, or the aggregate label). *)
val output_header : Query.t -> string list

(** [result_tuples sq ~factor rel] the distinct target tuples of an
    evaluated reformulation ([rel] is the evaluation of [sq]'s expression,
    [None] for [Unsatisfiable]/[Trivial] bodies); [\[\]] means θ.  The same
    target-tuple construction {!answers_into} performs, reified as a list —
    used by compound (set-operator) queries. *)
val result_tuples :
  t -> factor:int -> Urm_relalg.Relation.t option -> Urm_relalg.Value.t array list
