(** The service answer cache: LRU over fully-evaluated reply payloads.

    Keys combine the session fingerprint, the canonical query text, the
    algorithm and the evaluation variant (exact / top-k / threshold plus
    its parameter), so a hit is guaranteed to be the byte-identical answer
    a cold run would produce over the same state.

    With mutable sessions ({!Session.mutate}) a fingerprint no longer pins
    one immutable instance, so entries carry the stored relations their
    answer read ({!Urm_incr.State.query_deps}) and mutations {!invalidate} the
    session's entries — selectively by touched relation for data-only
    batches, wholesale when the mapping set changed (every answer depends
    on it).  Inserts are guarded ({!Urm_util.Lru.add_guarded}): the server
    passes an epoch re-check so an answer computed over a pre-mutation
    snapshot can never be published after the mutation's invalidation ran.

    Hits, misses and evictions are counted as [cache.hit], [cache.miss]
    and [cache.evict]; invalidation as [cache.invalidate.selective],
    [cache.invalidate.wholesale] and [cache.invalidate.removed].  Each
    count is kept per cache — {!stats} and {!invalidation_stats} report
    this cache's own — and also recorded under the metrics scope given at
    creation (the server passes its ["service"] scope). *)

type t

val create : ?metrics:Urm_obs.Metrics.t -> capacity:int -> unit -> t

(** [key ~session ~query ~algorithm ~variant] — [variant] distinguishes
    evaluation modes sharing a query, e.g. ["exact"], ["topk:5"],
    ["threshold:0.3"]. *)
val key :
  session:Session.t -> query:Urm.Query.t -> algorithm:string -> variant:string ->
  string

val find : t -> string -> Urm_util.Json.t option

(** [add t ?guard ~deps key payload] — [deps] the stored relations the
    answer read; [guard] (default always-true) runs under the cache lock
    and vetoes the insert when it returns [false]. *)
val add :
  t -> ?guard:(unit -> bool) -> deps:string list -> string -> Urm_util.Json.t ->
  unit

type scope =
  | All  (** the session's whole entry set (mapping-set mutations) *)
  | Relations of string list  (** entries reading any of these relations *)

(** [invalidate t ~fingerprint scope] removes the matching entries of the
    session with that fingerprint and returns how many were removed. *)
val invalidate : t -> fingerprint:string -> scope -> int

val stats : t -> int * int * int  (** this cache's (hits, misses, evictions) *)

(** This cache's (selective, wholesale, removed-entry) invalidation
    counts. *)
val invalidation_stats : t -> int * int * int
