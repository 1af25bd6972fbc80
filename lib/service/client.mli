(** A minimal synchronous client for the service wire protocol.

    One exchange in flight at a time per client: {!call} writes a request
    and blocks for the matching reply, so no id-based demultiplexing is
    needed.  Open several clients for concurrency (the smoke test drives
    four from four threads).

    With [~framed:true] the client speaks the binary framing of {!Frame}
    (its first byte, the frame magic, is also what tells the server to
    answer in frames): {!call} exchanges [Request]/[Reply] frames,
    {!call_batch} ships several requests in one [Batch] frame — the
    pipelining/batching path — and {!hello}/{!credit} query the server's
    admission credit.  The default remains ND-JSON lines, so [urm
    request] works against any server. *)

type t

(** [connect ?host ?framed ~port ()] — raises [Unix.Unix_error] when
    nothing listens there.  [framed] defaults to [false] (ND-JSON). *)
val connect : ?host:string -> ?framed:bool -> port:int -> unit -> t

val close : t -> unit

(** [call c ~op params] sends one request (with a fresh integer id) and
    waits for its reply.  [Ok result] on success; [Error (code, message)]
    for error replies and transport failures (code ["transport"]). *)
val call :
  t ->
  op:string ->
  (string * Urm_util.Json.t) list ->
  (Urm_util.Json.t, string * string) result

(** [call_batch c [(op, params); …]] one [Batch] frame, one [Batch_reply]
    back: per-request results in request order.  The outer [Error] is a
    transport/protocol failure.  Framed connections only
    ([Invalid_argument] otherwise). *)
val call_batch :
  t ->
  (string * (string * Urm_util.Json.t) list) list ->
  ((Urm_util.Json.t, string * string) result list, string) result

(** [hello c] negotiates and returns the server's current admission
    credit (free queue slots).  Framed connections only. *)
val hello : t -> (int, string) result

(** [credit c] probes the server's current admission credit.  Framed
    connections only. *)
val credit : t -> (int, string) result

(** [roundtrip c line] raw exchange: send a pre-serialised request
    document, return the raw reply document — the [urm request] batch
    mode.  On a framed connection the document travels inside
    [Request]/[Reply] frames. *)
val roundtrip : t -> string -> (string, string) result
