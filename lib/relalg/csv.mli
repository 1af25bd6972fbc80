(** CSV import/export for relations and catalogs.

    RFC-4180-style: comma separator, double-quote quoting with ["" ]
    escaping, first row is the header.  On import, values are typed against
    a {!Schema.rel} when one is given (empty fields become [Null]);
    untyped import infers [Int]/[Float]/[Str] per field. *)

(** [write_string rel] the CSV text of a relation (header + rows). *)
val write_string : Relation.t -> string

(** [read_string ?schema text] parses CSV text into a relation.  With
    [schema], the header must contain exactly the relation's attributes (in
    any order) and values are coerced to the declared types.
    Raises [Failure] on malformed input or coercion errors. *)
val read_string : ?schema:Schema.rel -> string -> Relation.t

(** [export_catalog dir cat] writes every relation of [cat] to
    [dir/<name>.csv] (creates [dir] if needed). *)
val export_catalog : string -> Catalog.t -> unit

(** [import_catalog ~schema dir] reads [dir/<rel>.csv] for every relation of
    [schema] into a fresh catalog.  Raises [Failure] on missing files. *)
val import_catalog : schema:Schema.t -> string -> Catalog.t
