(** The shard router: one front-door service process forwarding requests
    to N spawned worker processes.

    Every request goes whole to one worker, and that worker's reply is
    the client's reply.  Placement — {!Hash}: a session's home shard is
    the rendezvous hash of its fingerprint; session-state operations
    ([open-session], [close-session], [mutate]) are applied on the home
    shard first (its reply is the client's reply), then broadcast to the
    rest, so every worker holds every session.  A read ([query], [topk],
    [threshold], [approx]) goes to the rendezvous owner of (fingerprint,
    op, query or SQL text, algorithm): repeats of one request meet the
    answer cache of the worker that computed it, and distinct requests
    spread over the fleet.  Each worker runs the same deterministic code
    over the same deterministic state, so every routed reply is
    byte-identical to a single-process server's.

    Lifecycle: workers are spawned at {!start} ({!Launcher}); a health
    thread reaps crashed workers and respawns them, replaying every
    session open and the full ordered mutation log so the replacement
    converges to the fleet state.  A request that hits a dead worker is
    retried once against the respawned one; if that also fails the
    client receives a typed [shard_unavailable] error.  Mutation batches
    are logged — in the home shard's resolved form, as echoed by its
    commit reply — before the broadcast, so a worker that died
    mid-broadcast replays the batch it missed.

    The router and the server share one front door
    ({!Urm_service.Front}): ND-JSON or binary frames by first-byte
    sniffing, batch frames, credit backpressure, proto-error-then-close
    on malformed frames, reply writes bounded by the server's default
    send timeout (10 s), and per-instance counts in [metrics] (the
    ["router"] object, including live ["connections"]).  Its executors
    are [forwarders] threads rather than domains: router work is
    I/O-bound. *)

type config = {
  host : string;
  port : int;  (** [0] binds an ephemeral port *)
  shards : int;  (** worker processes, [>= 1] *)
  forwarders : int;  (** router-side executor threads *)
  queue_depth : int;
  respawn : bool;  (** health thread respawns crashed workers *)
  worker : Launcher.spec;
}

val default_config : config
(** 2 shards, 4 forwarders, queue depth 64, respawn on. *)

type t

val start : config -> (t, string) result
(** Spawn the workers, bind and serve.  [Error] when a worker cannot be
    spawned (any already-spawned ones are killed). *)

val port : t -> int

val worker_pids : t -> int list
(** Live worker pids, by shard index — the fault-injection tests'
    SIGKILL targets. *)

val restarts : t -> int
(** Total worker respawns so far. *)

val stop : t -> unit
(** Begin shutdown: drain workers (wire [shutdown]), stop accepting.
    Idempotent. *)

val wait : t -> unit
(** Block until the router has stopped and every worker is reaped. *)
