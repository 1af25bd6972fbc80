(** A mutex-guarded LRU map from string keys to values.

    Backing store for the service answer cache and the compiled-plan
    cache: bounded capacity, O(1)
    lookup and insertion, least-recently-used eviction.  {!find} counts as
    a use.  All operations are safe to call from concurrent domains. *)

type 'a t

(** [create ~capacity] — raises [Invalid_argument] when [capacity <= 0]. *)
val create : capacity:int -> 'a t

val capacity : 'a t -> int
val length : 'a t -> int

(** [find t key] the cached value, promoting [key] to most recently used. *)
val find : 'a t -> string -> 'a option

(** [add t key v] binds [key], replacing any existing binding, and evicts
    least-recently-used entries beyond capacity.  Returns the evicted
    keys (at most one, except degenerate capacities). *)
val add : 'a t -> string -> 'a -> string list

(** [add_guarded t key v ~guard] like {!add}, but first runs [guard] under
    the map's lock and inserts only when it returns [true]; [None] means
    the insert was refused.  With invalidation also running under the lock
    ({!remove_if}), a guard that re-checks the version an entry was
    computed at makes publish-then-invalidate linearizable: a stale value
    can never be inserted after the invalidation that should have covered
    it.  [guard] must not re-enter the map. *)
val add_guarded :
  'a t -> string -> 'a -> guard:(unit -> bool) -> string list option

(** [put_if_absent t key v] inserts [v] only when [key] is unbound,
    otherwise promotes the incumbent.  Returns [(winner, inserted,
    evicted)] — the race discipline of caches whose values are computed
    outside the lock: the loser adopts the winner's value. *)
val put_if_absent : 'a t -> string -> 'a -> 'a * bool * string list

(** [remove_if t pred] unbinds every entry satisfying [pred] and returns how
    many were removed.  [pred] runs under the map's lock and must not
    re-enter the map.  Basis of the service cache's selective
    invalidation. *)
val remove_if : 'a t -> (string -> 'a -> bool) -> int

(** Drop every entry. *)
val clear : 'a t -> unit
