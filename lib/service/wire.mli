(** One server-side connection speaking either wire framing.

    A connection starts in line (ND-JSON) mode and is promoted to binary
    framing the moment its first byte is the frame magic [0xF5] — the
    negotiation is that single sniffed byte, so old clients keep working
    unchanged while framed clients get pipelining, batching and credit.

    Writes are serialised by a per-connection lock and never raise: an
    I/O failure — including a write that outlives the socket's send
    timeout — marks the connection dead, shuts the socket down so its
    reader stops, and later writes become no-ops (the reply to a vanished
    or stalled client is discarded, not fatal).  {!Front}, the front door
    of both {!Server} and the shard router, builds its reader loop on
    {!recv}. *)

type mode = Lines | Frames

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  wlock : Mutex.t;
  mutable alive : bool;  (** writable: no write has failed, not torn down *)
  mutable closed : bool;  (** the fd is closed *)
  mutable mode : mode;
}

val of_fd : Unix.file_descr -> t
(** Wrap an accepted socket; mode starts as [Lines] until sniffed. *)

type event =
  | Line of string  (** one ND-JSON request line (without the newline) *)
  | Framed of Frame.t
  | Malformed of Frame.error  (** answer with a proto-error, then close *)
  | Eof  (** clean close at a message boundary *)

val recv : t -> event
(** Block for the next inbound event.  The first [0xF5] byte switches the
    connection to [Frames] permanently. *)

val send_reply : ?id:Urm_util.Json.t -> t -> string -> unit
(** Send one serialised reply document in the connection's mode: a line,
    or a [Reply] frame.  A document longer than {!Frame.max_payload} (in
    either mode) is replaced by a typed [reply_too_large] error carrying
    [id] (default [null]). *)

val send_frame : t -> Frame.t -> unit
(** Send a frame verbatim (framed connections only — callers only reach
    this from frame-triggered paths). *)

val send_batch_reply : t -> (Urm_util.Json.t * string) list -> unit
(** Send [(request id, reply)] pairs as one [Batch_reply] frame.  Replies
    that would overflow the frame, largest first, are replaced by typed
    [reply_too_large] errors for their ids. *)

val wake : t -> unit
(** Unblock a reader parked in [recv] (shutdown both directions); the
    reader then observes [Eof] and runs {!teardown}. *)

val teardown : t -> unit
(** Mark dead and close the fd — also after a failed write already marked
    it dead.  Idempotent. *)
