(** The concurrent query service.

    A server owns a {!Session} catalog and a {!Cache} of answers, and
    serves the {!Protocol} wire format through its {!Front} door: a
    loopback listening socket speaking ND-JSON lines or the binary
    framing of {!Frame} (see {!Wire}), a bounded admission queue with
    [busy] rejections and [Credit] backpressure, and an executor pool of
    [workers] OCaml domains that evaluate requests over the (immutable,
    shared) session state.  The shard router runs its connections through
    the same {!Front}, so the two processes share one implementation of
    the wire behaviour.  A shard router (lib/shard) forwards each request
    whole to one server of its fleet, so a routed reply is exactly that
    server's reply.  Request parameters an operation does not read are
    ignored.

    Every reply is capped at {!Frame.max_payload} bytes: a larger one is
    answered with a typed [reply_too_large] error ({!Wire.send_reply}).
    Every reply write is bounded by [send_timeout]: a client that stops
    reading loses its connection, not an executor.

    The [metrics] op reports this server's own counts — requests, latency
    window (p50/p95/p99/mean), cache, queue, sessions, live connections —
    never those of another server in the same process.  Besides, request
    latency (admission to reply, seconds) is recorded in the ["service"]
    metrics scope as the [phase.request] timer, next to the counters
    [requests], [cache.{hit,miss,evict}] and [queue.{depth,rejected}].

    Shutdown — {!stop}, or a client [shutdown] request — is a graceful
    drain: no further admissions, queued work completes and is answered,
    then workers exit and connections are closed. *)

type config = {
  host : string;  (** loopback interface, default ["127.0.0.1"] *)
  port : int;  (** [0] binds an ephemeral port; see {!port} *)
  workers : int;  (** executor domains *)
  queue_depth : int;  (** admission-queue bound; beyond it requests get [busy] *)
  cache_capacity : int;  (** answer-cache entries *)
  send_timeout : float;
      (** SO_SNDTIMEO on accepted sockets, seconds; a reply write stalled
          this long marks the connection dead instead of wedging a worker.
          [0.] disables the bound. *)
  engine : Urm_relalg.Compile.engine;
      (** query-execution engine for sessions this server opens (default
          vectorized); [metrics] requests report the sessions' plan-cache
          hit/miss/evict totals under ["plan_cache"]. *)
}

val default_config : config

type t

(** [start ?metrics config] binds, listens and returns immediately with
    the pool running.  [metrics] (the registry scope the counters and the
    [phase.request] timer are recorded in) defaults to the ["service"]
    scope of {!Urm_obs.Metrics.global}.  Ignores SIGPIPE process-wide so writes to
    disconnected clients surface as I/O errors rather than killing the
    server.  Raises [Unix.Unix_error] when the port is taken. *)
val start : ?metrics:Urm_obs.Metrics.t -> config -> t

(** The actually-bound port (differs from [config.port] when that was 0). *)
val port : t -> int

(** The server's session catalog — lets an embedding process (CLI preload,
    tests, examples) open sessions without a round-trip. *)
val sessions : t -> Session.catalog

(** [answers_json answer limit] the top-[limit] answers exactly as
    [query] replies serialise them, for callers that check a reply
    against a locally computed answer. *)
val answers_json : Urm.Answer.t -> int -> Urm_util.Json.t

(** Begin graceful drain; returns immediately. Idempotent. *)
val stop : t -> unit

(** Block until the server has fully drained and every worker, reader and
    acceptor has exited.  Returns only after {!stop} (or a client
    [shutdown] request) initiated the drain. *)
val wait : t -> unit

(** [(count, p50, p95, p99)] over the recent-latency window, seconds;
    all zero while the window is empty. *)
val latency_summary : t -> int * float * float * float

(** Live connections right now — drops to its old level once misbehaving
    or departed clients have been torn down (the fuzz suite's leak
    probe). *)
val connection_count : t -> int
