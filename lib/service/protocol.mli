(** The service wire protocol: newline-delimited JSON over a loopback TCP
    socket, or the same JSON documents inside the binary framing of
    {!Frame} (a connection negotiates by its first byte; ND-JSON is the
    fallback, so [urm request] keeps working against any server).

    One request per line, one reply per line.  A request is
    [{"id": <any>, "op": "<name>", "params": {…}}]; the reply echoes the
    id and is either [{"id", "ok": true, "result": …}] or
    [{"id", "ok": false, "error": {"code", "message"}}].  Replies to
    pipelined requests may arrive out of request order (workers complete
    independently); the id is the correlation handle.

    Operations and their parameters are documented in DESIGN.md
    ("Query service"). *)

module Json = Urm_util.Json

type request = {
  id : Json.t;  (** echoed verbatim; [Null] when the client sent none *)
  op : string;
  params : Json.t;  (** an object, or [Null] when omitted *)
}

(** {1 Requests} *)

(** [request ?id ~op params] builds a request value (client side). *)
val request : ?id:Json.t -> op:string -> (string * Json.t) list -> Json.t

(** [parse_request line] — [Error] describes the malformation. *)
val parse_request : string -> (request, string) result

(** Parameter accessors: [None] when absent; [Error] mentions of a present
    but ill-typed parameter are reported as [Failure] by the raw [Json]
    accessors, which the server maps to a [bad_request] reply. *)

val param : request -> string -> Json.t option
val str_param : request -> string -> string option
val int_param : request -> string -> int option
val float_param : request -> string -> float option

(** {1 Replies} *)

(** [ok ~id result] serialised reply line (without the newline). *)
val ok : id:Json.t -> Json.t -> string

(** [error ~id ~code message] — codes in use: [bad_request], [busy],
    [not_found], [conflict], [unavailable], [error], [reply_too_large]
    when a reply would exceed one frame's payload, [stale_range] (a
    fan-out slot whose [expect_h] differs from the live mapping count — a
    mutate raced the fan-out), and (from the shard router)
    [shard_unavailable] when a worker process died and its replacement
    was not ready in time. *)
val error : id:Json.t -> code:string -> string -> string

type reply =
  | Ok of Json.t * Json.t  (** id, result *)
  | Err of Json.t * string * string  (** id, code, message *)

val parse_reply : string -> (reply, string) result

(** [decode_reply result text] decodes one reply document without
    building its tree: [result] reads the ["result"] value from the
    cursor where the document holds it (fields in any order), and its
    return is [Ok].  An ["ok": false] reply is [Error (code, message)],
    as {!parse_reply} reads it, whatever [result] did before the ["ok"]
    field was seen.  Raises [Failure] on malformed text, a reply without
    a boolean ["ok"], or an [ok] reply without a ["result"]. *)
val decode_reply :
  (Json.cursor -> 'a) -> string -> ('a, string * string) result

(** {1 Values} *)

(** Relational values on the wire: [Null] ↦ JSON null, numbers ↦ numbers,
    strings ↦ strings (ints survive a round-trip exactly; [to_value]
    reads integral numbers back as [Int]). *)

val value_to_json : Urm_relalg.Value.t -> Json.t

val value_of_json : Json.t -> Urm_relalg.Value.t

(** [wire_value v] is [value_of_json (value_to_json v)]: the value a peer
    rebuilds from [v].  It differs from [v] for an integral [Float] below
    10¹⁵ (read back as [Int]) and an [Int] at or above it (read back as
    [Float]); any other value is returned as is. *)
val wire_value : Urm_relalg.Value.t -> Urm_relalg.Value.t
