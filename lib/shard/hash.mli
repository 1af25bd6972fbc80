(** Placement: which worker owns what.

    The router places by rendezvous (highest-random-weight) hashing of a
    string key — every router instance computes the same owner from the
    key and the shard count alone, no coordination state, and changing
    the shard count moves only the minimal number of keys.  A session's
    key is its fingerprint; a read request's key adds its op, query text
    and algorithm (see {!Router}). *)

val owner : shards:int -> string -> int
(** [owner ~shards key] ∈ [\[0, shards)], stable across processes
    ({!Urm_util.Fnv} is platform-independent).  Raises
    [Invalid_argument] when [shards <= 0]. *)

val ranges : shards:int -> h:int -> (int * int) array
(** [ranges ~shards ~h] contiguous [\[lo, hi)] mapping ranges covering
    [0..h-1], one per shard, sizes differing by at most one.  Empty
    ranges appear when [h < shards].  Not used by the router: it is kept
    only for the benchmark's trace probe (perfbench's shard-q4
    [partials]), which sends these ranges as request parameters the
    server ignores. *)
