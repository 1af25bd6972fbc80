(** The front door shared by {!Server} and the shard router: everything
    between a listening socket and a request handler.

    - an acceptor thread that applies the send timeout to each accepted
      socket and starts one reader thread per connection ({!Wire.recv}:
      ND-JSON lines, or binary frames when the first byte is the frame
      magic);
    - a bounded admission queue: beyond [queue_depth] a request is
      rejected at once with [busy] (framed connections also get a
      [Credit] frame with the free slot count), and while draining with
      [unavailable]; [Hello]/[Credit] frames are answered with the free
      slot count;
    - [executors] executor loops — OCaml domains or system threads, the
      caller's choice — that pop jobs, run the handler, and write the
      reply; a [Batch] frame is one job answered by one [Batch_reply];
    - a typed guard that turns any exception escaping the handler into an
      error reply, so an executor never dies of a request;
    - per-instance counts: requests answered, admissions rejected, queue
      depth, live connections, and a 4096-entry latency window
      (admission to reply, seconds).

    Malformed frames are answered with a [Proto_error] frame, then the
    connection is closed.  {!stop} begins a graceful drain: no further
    admissions, queued work completes and is answered, then the
    executors exit; {!wait} then closes every connection. *)

type executor =
  | Domains  (** CPU-bound handlers: one OCaml domain per executor *)
  | Threads  (** I/O-bound handlers: one system thread per executor *)

type config = {
  name : string;  (** the process kind in rejections: ["<name> is draining"] *)
  host : string;
  port : int;  (** [0] binds an ephemeral port; see {!port} *)
  executors : int;
  executor : executor;
  queue_depth : int;
  send_timeout : float;
      (** SO_SNDTIMEO on accepted sockets, seconds; a reply write stalled
          this long marks the connection dead instead of wedging an
          executor.  [0.] disables the bound. *)
}

type t

val listen : ?metrics:Urm_obs.Metrics.t -> config -> t
(** Bind and listen; nothing is served until {!serve}.  With [metrics],
    every request is also recorded there: counters [requests],
    [queue.depth] and [queue.rejected], and the [phase.request] timer
    (recorded just after the reply is written).  Ignores SIGPIPE
    process-wide so writes to departed clients surface as I/O errors.
    Raises [Unix.Unix_error] when the address is taken. *)

val serve : t -> (Protocol.request -> string) -> unit
(** Start the acceptor and the executors over [handler], which maps one
    request to its serialised reply document. *)

val port : t -> int
(** The actually-bound port. *)

val stop : t -> unit
(** Begin graceful drain; returns immediately.  Idempotent. *)

val stopping : t -> bool

val wait : t -> unit
(** Block until the acceptor and every executor have exited (so only
    after {!stop}), then wake, join and close every connection. *)

val requests : t -> int
(** Requests answered by this instance (a batch counts each item). *)

val connections : t -> int
(** Live connections right now — drops back once departed or misbehaving
    clients have been torn down. *)

type latency = { count : int; p50 : float; p95 : float; p99 : float; mean : float }

val latency : t -> latency
(** Every figure from one snapshot of the latency window; all zero while
    it is empty. *)

val latency_json : t -> Urm_util.Json.t
(** {!latency} as the [metrics] replies render it:
    [{"count", "p50", "p95", "p99", "mean"}]. *)

val queue_json : t -> Urm_util.Json.t
(** [{"depth", "rejected"}] as the [metrics] replies render it: the jobs
    waiting right now and the admissions this instance refused with
    [busy]. *)
