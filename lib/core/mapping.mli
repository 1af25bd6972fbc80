(** Possible mappings: the paper's data model (§III-A).

    A mapping is a one-to-one partial set of correspondences between target
    and source attributes (both sides as qualified ["rel.attr"] names), with
    a probability of being the correct mapping.  Probabilities across a
    mapping set sum to 1 (mutually exclusive events). *)

type t = private {
  id : int;  (** position within its mapping set *)
  pairs : (string * string) list;
      (** (target attr, source attr), sorted by target attr *)
  by_target : (string, string) Hashtbl.t;
  prob : float;
  score : float;  (** raw similarity score the probability derives from *)
}

(** [make ~id ~prob ~score pairs] checks one-to-one-ness on both sides.
    Raises [Invalid_argument] on duplicate targets or sources. *)
val make : id:int -> prob:float -> score:float -> (string * string) list -> t

(** [source_of m target_attr] the corresponding source attribute, if any. *)
val source_of : t -> string -> string option

(** [targets m] mapped target attributes, sorted. *)
val targets : t -> string list

(** Number of correspondences. *)
val size : t -> int

(** [with_prob m p] same correspondences, different probability (used for
    representative mappings whose probability is a partition mass). *)
val with_prob : t -> float -> t

(** Structural identity on the correspondence sets (ignores id and prob). *)
val same_correspondences : t -> t -> bool

(** [o_ratio a b] = |a∩b| / |a∪b| over correspondence sets — the paper's
    overlap measure (§VIII-B.1).  [1.] when both are empty. *)
val o_ratio : t -> t -> float

val pp : Format.formatter -> t -> unit

(** [total_prob ms] sum of probabilities. *)
val total_prob : t list -> float
