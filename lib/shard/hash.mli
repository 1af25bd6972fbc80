(** Placement: which worker owns what.

    Sessions are placed by rendezvous (highest-random-weight) hashing of
    their fingerprint — every router instance computes the same owner
    from the key and the shard count alone, no coordination state, and
    changing the shard count moves only the minimal number of sessions.
    Placement picks only the home shard: within a session, the router's
    fan-out splits the unit list by slot on the workers, not here. *)

val owner : shards:int -> string -> int
(** [owner ~shards key] ∈ [\[0, shards)], stable across processes
    ({!Urm_util.Fnv} is platform-independent).  Raises
    [Invalid_argument] when [shards <= 0]. *)

val ranges : shards:int -> h:int -> (int * int) array
(** [ranges ~shards ~h] contiguous [\[lo, hi)] mapping ranges covering
    [0..h-1], one per shard, sizes differing by at most one.  Empty
    ranges appear when [h < shards].  Not on the routing path: range i
    equals the chunk a worker evaluates for [basic] slot i of [shards]
    (one unit per mapping), and it is kept for the benchmark's
    partial-request probe. *)
