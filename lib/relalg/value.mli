(** Typed atomic values stored in relations.

    [Null] is used for target attributes that have no correspondence under a
    given mapping (see DESIGN.md, semantics decision 2); it compares equal to
    itself so that duplicate answers aggregate correctly. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string

val equal : t -> t -> bool

(** Total order: [Null < Int < Float < Str], numeric/lexicographic within a
    constructor. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [is_null v] *)
val is_null : t -> bool
