(** Attribute-name tokenisation.

    Splits on underscores, dots, digits and camelCase boundaries, strips
    TPC-H-style relation prefixes (["c_"], ["ps_"], …), and greedily
    decomposes compound words against the domain vocabulary (so
    ["orderpriority"] becomes [["order"; "priority"]]). *)

(** [decompose vocabulary token] greedy longest-prefix decomposition of
    [token] into vocabulary words; [\[token\]] if no decomposition covers
    it completely. *)
val decompose : string list -> string -> string list

(** [tokens name] the lower-cased tokens of a (possibly qualified)
    attribute name — a leading token of length ≤ 2 coming from an [x_] or
    [xy_] prefix dropped — each split further by vocabulary [decompose]
    against {!Synonyms.vocabulary}, with stop-tokens (["to"], ["of"], …)
    removed. *)
val tokens : string -> string list
