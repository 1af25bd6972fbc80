(** String-similarity primitives used by the schema matcher. *)

(** [levenshtein a b] classic edit distance (insert/delete/substitute). *)
val levenshtein : string -> string -> int

(** [lev_sim a b] is [1 - d/max_len], in [\[0,1\]]; [1.] for two empty
    strings. *)
val lev_sim : string -> string -> float

(** [ngram_sim ~n a b] Jaccard similarity of the character n-gram sets of
    [a] and [b] (strings shorter than [n] contribute themselves). *)
val ngram_sim : n:int -> string -> string -> float

(** [jaccard a b] Jaccard similarity of two string lists viewed as sets. *)
val jaccard : string list -> string list -> float
