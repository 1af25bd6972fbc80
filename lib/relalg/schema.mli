(** Logical schemas: named sets of relations with typed attributes.

    Both the source schema (the TPC-H-style purchase-order schema) and the
    three target schemas (Excel, Noris, Paragon) are values of {!t}.  The
    matcher and the mapping model work with {e qualified} attribute names of
    the form ["relation.attribute"]. *)

type ty = TInt | TFloat | TStr

type attr = { aname : string; ty : ty }

type rel = { rname : string; attrs : attr list }

type t = { sname : string; rels : rel list }

val make : string -> (string * (string * ty) list) list -> t

(** [find_rel s name] raises [Not_found] when absent. *)
val find_rel : t -> string -> rel

val mem_rel : t -> string -> bool

(** [qualify rel attr] is ["rel.attr"]. *)
val qualify : string -> string -> string

(** [split_qualified "r.a"] is [("r", "a")].  Raises [Invalid_argument] when
    the name has no dot. *)
val split_qualified : string -> string * string

(** All qualified attribute names of the schema, in declaration order. *)
val qualified_attrs : t -> string list

(** [attr_count s] is the total number of attributes across all relations. *)
val attr_count : t -> int

(** [type_of s qattr] is the type of a qualified attribute.
    Raises [Not_found] when absent. *)
val type_of : t -> string -> ty

val pp : Format.formatter -> t -> unit
