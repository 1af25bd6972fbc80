(** Purchase-order domain synonym dictionary.

    Plays the role of COMA++'s auxiliary thesaurus: tokens in the same group
    are treated as equal by the token-level similarity. *)

(** [canon token] is the canonical representative of [token]'s synonym
    group, or [token] itself when it belongs to none. *)
val canon : string -> string

(** All words known to the dictionary (used for compound decomposition). *)
val vocabulary : string list
