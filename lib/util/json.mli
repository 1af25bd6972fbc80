(** A minimal JSON representation with emitter and parser — enough to
    persist mapping sets and experiment results without external
    dependencies.

    Supports the full JSON grammar, with two liberties.  Numbers are
    OCaml floats (integers round-trip exactly up to 2⁵³).  A [\uXXXX]
    escape decodes to the UTF-8 bytes of that Basic Multilingual Plane
    code point; the two halves of a surrogate pair are not combined, each
    is encoded on its own as three bytes.  The emitter writes non-ASCII
    bytes as they are and escapes only quotes, backslashes and control
    characters.

    One parser serves both ways of reading: {!parse} builds a tree, and a
    {!cursor} pulls the same grammar value by value, so a caller can
    stream a large document into its own structure without a tree. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Compact rendering (no insignificant whitespace). *)
val to_string : t -> string

(** [parse text] or [Error message]. *)
val parse : string -> (t, string) result

(** [parse_exn text] raises [Failure]. *)
val parse_exn : string -> t

(** {1 Pull cursor}

    A position in a JSON text.  Each reader skips leading whitespace,
    consumes exactly one value of its kind and raises [Failure] (with the
    offset) when the text holds something else or ends early. *)

type cursor

val cursor : string -> cursor

(** [fields c f] reads an object, calling [f key] for each field in text
    order with [c] at the field's value; [f] must consume that value. *)
val fields : cursor -> (string -> unit) -> unit

(** [items c f] reads an array, calling [f ()] for each item with [c] at
    it; [f] must consume the item. *)
val items : cursor -> (unit -> unit) -> unit

val string : cursor -> string
val number : cursor -> float

(** [value c] the whole next value as a tree. *)
val value : cursor -> t

(** [finish c] fails unless only whitespace remains. *)
val finish : cursor -> unit

(** [member key json] field of an object. *)
val member : string -> t -> t option

(** Coercions; raise [Failure] on shape mismatch. *)
val to_list : t -> t list

val to_float : t -> float
val to_int : t -> int
val to_str : t -> string
