(** Length-prefixed binary framing for the service wire.

    A frame is

    {v
    0xF5 | varint payload_len | version (1B) | tag (1B) | crc32 (4B BE) | payload
    v}

    where the length is an unsigned LEB128 varint and the CRC-32 covers
    every header byte before it (magic through tag).  The magic byte
    [0xF5] can never begin a well-formed ND-JSON request line, so a
    server sniffs the first byte of a connection to pick the framing:
    ['{'] (or whitespace) selects the line protocol, [0xF5] the binary
    one — ND-JSON stays available as the negotiated fallback.

    Frame types:
    - [Hello]/[Hello_ack]: feature negotiation; the ack carries the
      server's current admission credit (free queue slots) so a client
      can pipeline without tripping [busy] rejects.
    - [Request]/[Reply]: one {!Protocol} JSON document each.  Requests
      may be pipelined: the server replies per-request (possibly out of
      order; the id correlates).
    - [Batch]/[Batch_reply]: several requests in one frame, executed as
      one job and answered positionally in one frame — the server-side
      batching path for many small queries.
    - [Credit]: explicit backpressure.  A client may send [Credit 0] as
      a probe; the server answers with its free queue slots.  The server
      also volunteers a [Credit] frame whenever it rejects a framed
      request with [busy].
    - [Proto_error]: the server's answer to a malformed frame — sent
      once, then the connection is closed.

    Payloads are capped at {!max_payload} bytes; oversized lengths are
    rejected before any allocation. *)

type t =
  | Hello of string  (** client info, free-form (JSON by convention) *)
  | Hello_ack of int  (** admission credit: free queue slots right now *)
  | Request of string  (** one serialised request document *)
  | Reply of string  (** one serialised reply document *)
  | Batch of string list  (** requests executed as one job *)
  | Batch_reply of string list  (** replies, positionally matching *)
  | Credit of int
  | Proto_error of string * string  (** code, message *)

val magic : char
(** [0xF5]. *)

val version : int
(** Current protocol version, [1].  Frames carrying any other version are
    rejected with {!Bad_version}. *)

val max_payload : int
(** 64 MiB. *)

type error =
  | Truncated  (** input ended inside a frame *)
  | Bad_magic of char
  | Bad_crc
  | Bad_version of int
  | Bad_tag of int
  | Oversized of int  (** declared length beyond {!max_payload} *)
  | Bad_payload of string  (** tag/payload shape mismatch *)

val error_code : error -> string
(** Stable machine-readable code, e.g. ["bad_crc"], ["version_skew"]. *)

val error_message : error -> string

(** {1 String codec} (pure — the qcheck round-trip surface) *)

val encode : t -> string

val decode : ?pos:int -> string -> (t * int, error) result
(** [decode ?pos s] one frame starting at [pos] (default 0); on success
    returns the frame and the offset just past it, so consecutive frames
    decode by chaining.  [Error Truncated] when [s] ends mid-frame. *)

(** {1 Channel codec} *)

val read_body : in_channel -> (t, error) result
(** [read_body ic] one frame whose magic byte was already consumed by the
    caller's sniffing read.  EOF mid-frame is [Error Truncated]; never
    raises [End_of_file]. *)

val write : out_channel -> t -> unit
(** Emit one frame (no flush): the bytes of {!encode}, written as the
    header and then the payload, without copying the payload.  Raises
    [Invalid_argument] when the payload exceeds {!max_payload}. *)
