(** Target queries in canonical select–join–product–project–aggregate form.

    Every query of the paper's workload (Table III) is a set of relation
    aliases (self-joins use distinct aliases over the same target relation),
    equality selections, equi-join predicates, an optional projection and an
    optional aggregate.  Queries without an explicit projection are
    normalised to project onto their referenced attributes (DESIGN.md,
    semantics decision 1). *)

(** An attribute of a specific alias, e.g. [{alias = "PO1"; attr = "orderNum"}]. *)
type tattr = { alias : string; attr : string }

val tattr_to_string : tattr -> string

(** [at alias attr] constructs a {!tattr}. *)
val at : string -> string -> tattr

type agg = Count | Sum of tattr

type t = private {
  name : string;
  aliases : (string * string) list;  (** alias → target relation name *)
  selections : (tattr * Urm_relalg.Value.t) list;
  joins : (tattr * tattr) list;
  projection : tattr list option;
  aggregate : agg option;
  group_by : tattr list;  (** grouping attributes; only with [aggregate] *)
}

(** [make ~name ~target ~aliases ?selections ?joins ?projection ?aggregate ()]
    validates every alias against [target] and every attribute against its
    alias's relation.  Raises [Invalid_argument] on unknown aliases,
    relations or attributes, and when both [projection] and [aggregate] are
    supplied. *)
val make :
  name:string ->
  target:Urm_relalg.Schema.t ->
  aliases:(string * string) list ->
  ?selections:(tattr * Urm_relalg.Value.t) list ->
  ?joins:(tattr * tattr) list ->
  ?projection:tattr list ->
  ?aggregate:agg ->
  ?group_by:tattr list ->
  unit ->
  t

(** [qualified q ta] the target-schema attribute name [ta] resolves to,
    e.g. [at "PO1" "orderNum"] → ["PO.orderNum"]; this is the key used
    against mapping correspondences. *)
val qualified : t -> tattr -> string

(** Attributes referenced by operators of the query (selections, joins,
    projection, aggregate), first-use order, no duplicates. *)
val referenced_attrs : t -> tattr list

(** Referenced attributes of one alias. *)
val referenced_of_alias : t -> string -> tattr list

(** Output attributes: the explicit projection, or all referenced
    attributes when none; for aggregate queries, the grouping attributes
    (the aggregate value itself is appended by the reformulation). *)
val output_attrs : t -> tattr list

(** [needed_attrs target q alias] attributes whose correspondences determine
    the alias's source cover: its referenced attributes, or {e all} its
    relation's attributes when the alias is referenced by no operator. *)
val needed_attrs : Urm_relalg.Schema.t -> t -> string -> tattr list

(** Schedulable operators for o-sharing. *)
type op =
  | Op_select of int  (** index into [selections] *)
  | Op_join of int  (** index into [joins] *)
  | Op_product of string * string  (** connect two alias components *)
  | Op_output  (** final projection / aggregation; always last *)

val pp_op : t -> Format.formatter -> op -> unit

(** All operators of the query: every selection, every join, one product per
    component connection (components induced by the join graph), and the
    output operator. *)
val operators : t -> op list

(** Number of "query operators" in the paper's sense (selections + joins +
    products + aggregate/projection), for reporting. *)
val operator_count : t -> int

(** Canonical text of the query body: independent of the query's [name] and
    of the order in which aliases, selections and join predicates were
    written (join sides are oriented lexicographically), so two spellings
    of the same query — e.g. a named workload query and its SQL rendering —
    canonicalise identically.  The service answer cache keys on this. *)
val canonical : t -> string

(** [shape q] {!canonical} with the selection constants erased: queries
    that differ only in the constants they select share a shape.  A shape
    fixes every input of the q-sharing partition ({!Ptree.partition}
    labels mappings by the referenced attributes and, for aggregates, the
    covers of unreferenced aliases) and of an unprobed reformulation's
    relations, so {!Ctx} memoises both per shape. *)
val shape : t -> string

(** Stable 64-bit digest of {!canonical} as 16 hex digits. *)
val fingerprint : t -> string

val pp : Format.formatter -> t -> unit
val to_string : t -> string
