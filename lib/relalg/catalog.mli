(** A catalog binds relation names to stored relations and owns their hash
    indexes.  One catalog instance plays the role of the paper's source
    instance [D]. *)

type t

val create : unit -> t
val add : t -> string -> Relation.t -> unit

(** [cow t replacements] a copy-on-write derived catalog: same bindings as
    [t] except each [(name, rel)] of [replacements] rebinds [name] to
    [rel].  Untouched relations and their already-built indexes are shared
    with [t] (index tables are write-once after construction); replaced
    relations start index-less and rebuild on demand.  [t] itself is not
    modified, so readers pinned to it keep a consistent snapshot.  Raises
    [Invalid_argument] when a replacement names an unknown relation. *)
val cow : t -> (string * Relation.t) list -> t

(** [id t] this catalog's identity, unique per {!create} and {!cow}: a
    cache entry derived from one catalog version keys on it rather than
    holding the catalog itself, so it does not keep a superseded version's
    relations and indexes alive. *)
val id : t -> int

(** [find t name] raises [Not_found] for unknown relations. *)
val find : t -> string -> Relation.t

val mem : t -> string -> bool
val names : t -> string list

(** Total stored rows across all relations — the "database size" axis of the
    paper's Figures 10(b)/11(b). *)
val total_rows : t -> int

(** [index t rel col] is the hash index value → row indexes for a stored
    relation's column, built lazily and cached.  Raises [Not_found] for an
    unknown relation or column. *)
val index : t -> string -> string -> (Value.t, int list) Hashtbl.t

(** [build_indexes t] eagerly builds the index of every column of every
    stored relation.  A catalog is not safe for concurrent lazy index
    construction (see {!index}); the query service calls this once at
    session-open time so that evaluation workers only ever read. *)
val build_indexes : t -> unit

(** [lookup t rel col v] rows of [rel] whose [col] equals [v], via the
    index. *)
val lookup : t -> string -> string -> Value.t -> Value.t array list

(** [has_value t rel col v] = [lookup t rel col v <> []], answered by the
    same index (or scan) without collecting the rows — the emptiness test
    of an equality selection over a stored relation. *)
val has_value : t -> string -> string -> Value.t -> bool

(** [set_indexing t false] disables index use ({!lookup} then scans); used by
    the index ablation bench. *)
val set_indexing : t -> bool -> unit

val indexing_enabled : t -> bool
