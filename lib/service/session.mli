(** The session catalog: named, long-lived query contexts.

    A session is the expensive per-instance state the paper's sharing
    techniques amortise {e within} one query — generated source instance,
    matcher + Murty mapping set, hash indexes — built once at open time.
    The instance and mapping set live in a {!Urm_incr.Vcatalog}: queries
    pin the head snapshot and evaluate over it without locking, while
    {!mutate} commits copy-on-write versions under the catalog's writer
    lock.  Readers holding an older snapshot are unaffected (snapshot
    isolation); the per-query maintained answers ({!with_incr_state})
    catch up by delta evaluation.

    A session is identified by a stable fingerprint: an FNV-1a digest of
    the target schema, generation seed, scale, h and the full mapping-set
    JSON {e at open time}.  Equal parameters always produce equal
    fingerprints (generation is deterministic).  The answer cache keys on
    the fingerprint and relies on mutation-driven invalidation
    ({!Cache.invalidate}) for freshness; {!epoch} tells the two states
    apart. *)

type t = private {
  name : string;
  fingerprint : string;  (** 16 hex digits, see {!Urm_util.Fnv} *)
  target_name : string;
  target : Urm_relalg.Schema.t;
  vcat : Urm_incr.Vcatalog.t;
  seed : int;
  scale : float;
  h : int;  (** requested mapping-set size at open time *)
  rows : int;  (** total tuples of the generated source instance *)
  incr_states : (string, Urm_incr.State.t) Hashtbl.t;
  incr_lock : Mutex.t;
  inv_selective : int Atomic.t;
  inv_wholesale : int Atomic.t;
}

type catalog

val create_catalog : unit -> catalog

(** [open_session catalog ?name ?engine ?seed ?scale ?h ~target ()] finds
    or builds a session.  Defaults: engine vectorized, seed 42, scale
    {!Urm_tpch.Gen.default_scale}, h 100, name derived from the
    fingerprint.  Returns [(session, created)] where [created] is [false]
    when an identical session (same name, same parameters) already
    existed.  [Error]s: unknown target schema, or an existing session of
    the same name with different parameters.  The build runs outside the
    catalog lock; concurrent opens of the same name may each build, but
    only the first insert wins and the others observe it.  The engine is
    not part of the fingerprint — all engines return identical answers,
    so cached answers remain valid across the knob. *)
val open_session :
  catalog ->
  ?name:string ->
  ?engine:Urm_relalg.Compile.engine ->
  ?seed:int ->
  ?scale:float ->
  ?h:int ->
  target:string ->
  unit ->
  (t * bool, string) result

val find : catalog -> string -> t option

(** [close catalog name] drops the session; [false] when absent. *)
val close : catalog -> string -> bool

(** All open sessions, sorted by name. *)
val list : catalog -> t list

val fingerprint : t -> string

(** The current head snapshot.  Pin it once per request: the {!ctx} and
    {!mappings} of one snapshot are mutually consistent, while two
    successive calls may straddle a commit. *)
val snapshot : t -> Urm_incr.Vcatalog.snapshot

val ctx : t -> Urm.Ctx.t  (** = [(snapshot s).ctx] *)

val mappings : t -> Urm.Mapping.t list  (** = [(snapshot s).mappings] *)

val epoch : t -> int

(** [mutate s batch] commits the batch atomically (see
    {!Urm_incr.Vcatalog.commit}); the caller (the server's [mutate] op)
    is responsible for invalidating the answer cache {e after} the commit
    and before replying. *)
val mutate :
  t -> Urm_incr.Mutation.batch -> (Urm_incr.Vcatalog.outcome, string) result

(** [with_incr_state ?metrics s q f] runs [f] over the session's
    maintained state for [q] — built on first use, caught up to the
    catalog head by delta evaluation on every later use — serialised by
    the session's incr lock ([f] must not re-enter it). *)
val with_incr_state :
  ?metrics:Urm_obs.Metrics.t ->
  t ->
  Urm.Query.t ->
  (Urm_incr.State.t -> [ `Built | `Current | `Patched | `Rebuilt ] -> 'a) ->
  'a

(** Per-session invalidation accounting, surfaced in the [metrics] op. *)
val note_invalidation : t -> [ `Selective | `Wholesale ] -> unit

val invalidations : t -> int * int  (** (selective, wholesale) *)

val to_json : t -> Urm_util.Json.t
