(** Operator-level observability: monotonic counters, accumulating
    wall-clock timers and lightweight spans, grouped in a registry and
    addressed through hierarchical name scopes.

    Counter and timer names are flat strings; a {!scope} is a cheap view of
    a registry that prefixes every name it touches with ["<name>/"], so the
    same instrumentation code yields ["e-basic/relalg/op.select"] and
    ["o-sharing/relalg/op.select"] depending on which algorithm scope it
    ran under.  One {!global} registry is the default sink, so algorithms
    can record without a handle being threaded through every call; a
    harness that needs isolation (one snapshot per experiment) either
    passes its own registry or {!reset}s a scope of the global one between
    runs.

    Handles returned by {!counter} and {!timer} are stable and cheap to hit
    (a mutable record, no hashtable access), so hot paths resolve them once
    and increment in O(1).  Counter names in use are documented in
    DESIGN.md ("Metrics & observability").

    The module is safe for concurrent use from multiple domains: a single
    process-wide mutex serialises registry mutation, counter/timer updates
    and snapshots, so the query-service worker pool can share {!global}
    without torn counts.  Snapshots ({!counters}, {!timers}, {!to_json},
    {!pp}) are sorted by name, making rendered metrics byte-deterministic
    for golden tests and diffs. *)

type t
(** A registry (or a scoped view of one). *)

val create : unit -> t
(** A fresh, empty registry with no prefix. *)

val global : t
(** The process-wide default registry. *)

val scope : t -> string -> t
(** [scope t name] views [t] with ["name/"] appended to the prefix. *)

val reset : t -> unit
(** Drop every counter and timer whose name lies under [t]'s prefix
    (everything, for an unscoped registry).  Handles obtained before the
    reset keep counting into detached objects; re-resolve after a reset. *)

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** Get or create the counter named [prefix ^ name]. *)

val incr : ?by:int -> counter -> unit
val value : counter -> int

val find_counter : t -> string -> int option
(** Current value of a counter by name, [None] if it was never created. *)

(** {1 Timers} *)

type timer
(** Accumulated seconds plus the number of recordings. *)

val timer : t -> string -> timer
val record : timer -> float -> unit
val elapsed : timer -> float
val calls : timer -> int

val time : timer -> (unit -> 'a) -> 'a
(** [time tm f] runs [f] inside a span of [tm] (recorded even if [f]
    raises). *)

(** {1 Snapshots} *)

val counters : t -> (string * int) list
(** Counters under [t]'s prefix, sorted by name. *)

val timers : t -> (string * (float * int)) list
(** Timers under [t]'s prefix as [(name, (seconds, count))], sorted. *)

val to_json : t -> Urm_util.Json.t
(** [{"counters": {name: int, …}, "timers": {name: {"seconds": s,
    "count": n}, …}}] — the [metrics.json] schema (see DESIGN.md). *)

val pp : Format.formatter -> t -> unit

(** {1 Cross-process roll-up} *)

val rollup : ?drop:string list -> Urm_util.Json.t list -> Urm_util.Json.t
(** [rollup snapshots] merges metric snapshots from several processes
    (the shard router's aggregate view): numeric leaves at the same path
    sum, objects merge recursively over the union of keys, and any other
    mismatch keeps the first value.  Keys in [drop] (default the
    non-additive [p50]/[p95]/[p99]/[mean]) are removed wherever they
    appear — a roll-up must not pretend percentiles add. *)
