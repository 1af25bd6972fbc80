(** The shard router: one front-door service process fanning requests
    over N spawned worker processes.

    Placement — {!Hash}: a session's home shard is the rendezvous hash
    of its fingerprint; session-state operations ([open-session],
    [close-session], [mutate]) are applied on the home shard first (its
    reply is the client's reply), then broadcast to the rest, so every
    worker holds every session and the fan-outs below can touch all of
    them.  All other session operations ([topk], [threshold], [approx],
    and [query] under [incr] and the o-sharing variants) route whole to
    the home shard — the same deterministic code over the same
    deterministic state, hence byte-identical to a single-process
    server.

    [query] under an algorithm of {!Urm_service.Server.unit_fan_algorithms}
    (basic, e-basic, e-MQO, q-sharing) fans out: shard i of N evaluates
    slot i of N, a contiguous chunk of the algorithm's unit list
    ([slot]/[slots]/[expect_h], see {!Urm_service.Server}; basic has one
    unit per mapping), and returns a grouped partial answer
    ({!Urm_service.Partial}: each tuple once, with its ascending per-unit
    additions).  The router merges the replies in ascending slot order —
    the same sequence of float additions per answer bucket as sequential
    evaluation, which matters because float addition is not associative —
    so the recombined answer is bit-identical to sequential evaluation at
    any shard count (JSON floats render as %.17g and round-trip exactly).

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
