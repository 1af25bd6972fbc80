(** Placement: which worker owns what.

    Sessions are placed by rendezvous (highest-random-weight) hashing of
    their fingerprint — every router instance computes the same owner
    from the key and the shard count alone, no coordination state, and
    changing the shard count moves only the minimal number of sessions.
    Within a session, [basic] query evaluation fans out over contiguous
    mapping ranges, one per shard, so the router can replay each tuple's
    per-mapping additions in ascending order ({!Urm_service.Partial}) —
    the sequential run's order of float additions, which a regrouped
    (e.g. per-range) sum would not reproduce bit for bit. *)

val owner : shards:int -> string -> int
(** [owner ~shards key] ∈ [\[0, shards)], stable across processes
    ({!Urm_util.Fnv} is platform-independent).  Raises
    [Invalid_argument] when [shards <= 0]. *)

val ranges : shards:int -> h:int -> (int * int) array
(** [ranges ~shards ~h] contiguous [\[lo, hi)] mapping ranges covering
    [0..h-1], one per shard, sizes differing by at most one.  Empty
    ranges appear when [h < shards]. *)
