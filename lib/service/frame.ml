module Json = Urm_util.Json

type t =
  | Hello of string
  | Hello_ack of int
  | Request of string
  | Reply of string
  | Batch of string list
  | Batch_reply of string list
  | Credit of int
  | Proto_error of string * string

let magic = '\xF5'
let version = 1
let max_payload = 1 lsl 26

type error =
  | Truncated
  | Bad_magic of char
  | Bad_crc
  | Bad_version of int
  | Bad_tag of int
  | Oversized of int
  | Bad_payload of string

let error_code = function
  | Truncated -> "truncated"
  | Bad_magic _ -> "bad_magic"
  | Bad_crc -> "bad_crc"
  | Bad_version _ -> "version_skew"
  | Bad_tag _ -> "bad_tag"
  | Oversized _ -> "frame_too_large"
  | Bad_payload _ -> "bad_payload"

let error_message = function
  | Truncated -> "input ended inside a frame"
  | Bad_magic c -> Printf.sprintf "expected magic 0xF5, got 0x%02X" (Char.code c)
  | Bad_crc -> "header checksum mismatch"
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d (want %d)" v version
  | Bad_tag t -> Printf.sprintf "unknown frame tag 0x%02X" t
  | Oversized n -> Printf.sprintf "declared payload of %d bytes exceeds the %d limit" n max_payload
  | Bad_payload m -> "malformed payload: " ^ m

exception Err of error

let tag_of = function
  | Hello _ -> 0x01
  | Hello_ack _ -> 0x02
  | Request _ -> 0x03
  | Reply _ -> 0x04
  | Batch _ -> 0x05
  | Batch_reply _ -> 0x06
  | Credit _ -> 0x07
  | Proto_error _ -> 0x08

(* ------------------------------------------------------------------ *)
(* Varints (unsigned LEB128) *)

let add_varint buf n =
  if n < 0 then invalid_arg "Frame: negative varint";
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7F in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

(* [read_varint byte] where [byte] yields the next input byte; raises
   [Err] on overlong encodings. Five bytes (35 value bits) bound every
   frame length, batch count and credit value far beyond [max_payload],
   and the cap keeps a crafted 9-byte encoding (0x80 x8 then a high
   final byte) from overflowing OCaml's 63-bit int into a negative
   length that would slip past the [> max_payload] checks. *)
let read_varint byte =
  let value = ref 0 and shift = ref 0 and count = ref 0 in
  let continue = ref true in
  while !continue do
    let b = Char.code (byte ()) in
    incr count;
    if !count > 5 then raise (Err (Oversized max_int));
    value := !value lor ((b land 0x7F) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !value

(* ------------------------------------------------------------------ *)
(* Payload codecs per tag *)

let varint_payload n =
  let buf = Buffer.create 4 in
  add_varint buf n;
  Buffer.contents buf

let list_payload items =
  let buf = Buffer.create 256 in
  add_varint buf (List.length items);
  List.iter
    (fun s ->
      add_varint buf (String.length s);
      Buffer.add_string buf s)
    items;
  Buffer.contents buf

let payload_of = function
  | Hello info -> info
  | Hello_ack credit -> varint_payload credit
  | Request doc | Reply doc -> doc
  | Batch items | Batch_reply items -> list_payload items
  | Credit n -> varint_payload n
  | Proto_error (code, message) ->
    Json.to_string
      (Json.Obj [ ("code", Json.Str code); ("message", Json.Str message) ])

(* Truncation inside a payload is the payload's own malformation
   ([Bad_payload]), not the frame's ([Truncated]): the frame length was
   honoured, its contents were not. *)
let varint_of_payload s =
  let i = ref 0 in
  let byte () =
    if !i >= String.length s then raise (Err (Bad_payload "payload ends early"))
    else begin
      let c = s.[!i] in
      incr i;
      c
    end
  in
  let v = try read_varint byte with Err (Oversized _) -> raise (Err (Bad_payload "varint too long")) in
  if !i <> String.length s then raise (Err (Bad_payload "trailing bytes after varint"));
  v

let list_of_payload s =
  let i = ref 0 in
  let byte () =
    if !i >= String.length s then raise (Err (Bad_payload "payload ends early"))
    else begin
      let c = s.[!i] in
      incr i;
      c
    end
  in
  let varint () =
    try read_varint byte with Err (Oversized _) -> raise (Err (Bad_payload "varint too long"))
  in
  let count = varint () in
  let items = ref [] in
  for _ = 1 to count do
    let len = varint () in
    if len < 0 || !i + len > String.length s then
      raise (Err (Bad_payload "item length beyond payload"));
    items := String.sub s !i len :: !items;
    i := !i + len
  done;
  if !i <> String.length s then
    raise (Err (Bad_payload "trailing bytes after batch items"));
  List.rev !items

let frame_of_tag tag payload =
  match tag with
  | 0x01 -> Hello payload
  | 0x02 -> Hello_ack (varint_of_payload payload)
  | 0x03 -> Request payload
  | 0x04 -> Reply payload
  | 0x05 -> Batch (list_of_payload payload)
  | 0x06 -> Batch_reply (list_of_payload payload)
  | 0x07 -> Credit (varint_of_payload payload)
  | 0x08 -> (
    match Json.parse payload with
    | Ok j -> (
      match (Json.member "code" j, Json.member "message" j) with
      | Some (Json.Str c), Some (Json.Str m) -> Proto_error (c, m)
      | _ -> raise (Err (Bad_payload "proto-error needs string code and message")))
    | Error m -> raise (Err (Bad_payload m)))
  | t -> raise (Err (Bad_tag t))

(* ------------------------------------------------------------------ *)
(* String codec *)

let add_be32 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (n land 0xFF))

(* Magic, length, version, tag and the CRC-32 of those bytes. *)
let header t len =
  let buf = Buffer.create 16 in
  Buffer.add_char buf magic;
  add_varint buf len;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (Char.chr (tag_of t));
  add_be32 buf (Urm_util.Crc32.digest (Buffer.contents buf));
  Buffer.contents buf

let checked_payload who t =
  let payload = payload_of t in
  if String.length payload > max_payload then
    invalid_arg (who ^ ": payload exceeds max_payload");
  payload

let encode t =
  let payload = checked_payload "Frame.encode" t in
  header t (String.length payload) ^ payload

let decode ?(pos = 0) s =
  let n = String.length s in
  try
    let i = ref pos in
    let byte () =
      if !i >= n then raise (Err Truncated)
      else begin
        let c = s.[!i] in
        incr i;
        c
      end
    in
    let c = byte () in
    if c <> magic then raise (Err (Bad_magic c));
    let len = read_varint byte in
    let ver = Char.code (byte ()) in
    let tag = Char.code (byte ()) in
    let header_len = !i - pos in
    let crc =
      let b3 = Char.code (byte ()) in
      let b2 = Char.code (byte ()) in
      let b1 = Char.code (byte ()) in
      let b0 = Char.code (byte ()) in
      (b3 lsl 24) lor (b2 lsl 16) lor (b1 lsl 8) lor b0
    in
    if crc <> Urm_util.Crc32.digest ~pos ~len:header_len s then
      raise (Err Bad_crc);
    if ver <> version then raise (Err (Bad_version ver));
    if len < 0 || len > max_payload then raise (Err (Oversized len));
    if !i + len > n then raise (Err Truncated);
    let payload = String.sub s !i len in
    i := !i + len;
    Ok (frame_of_tag tag payload, !i)
  with Err e -> Error e

(* ------------------------------------------------------------------ *)
(* Channel codec *)

let read_body ic =
  try
    let hdr = Buffer.create 16 in
    Buffer.add_char hdr magic;
    let byte () =
      let c = input_char ic in
      Buffer.add_char hdr c;
      c
    in
    let len = read_varint byte in
    let ver = Char.code (byte ()) in
    let tag = Char.code (byte ()) in
    let expect = Urm_util.Crc32.digest (Buffer.contents hdr) in
    let crc =
      let b3 = Char.code (input_char ic) in
      let b2 = Char.code (input_char ic) in
      let b1 = Char.code (input_char ic) in
      let b0 = Char.code (input_char ic) in
      (b3 lsl 24) lor (b2 lsl 16) lor (b1 lsl 8) lor b0
    in
    if crc <> expect then raise (Err Bad_crc);
    if ver <> version then raise (Err (Bad_version ver));
    if len < 0 || len > max_payload then raise (Err (Oversized len));
    if tag < 0x01 || tag > 0x08 then raise (Err (Bad_tag tag));
    let payload = really_input_string ic len in
    Ok (frame_of_tag tag payload)
  with
  | Err e -> Error e
  | End_of_file | Sys_error _ -> Error Truncated

(* The header, then the payload as it is: no copy of a large reply. *)
let write oc t =
  let payload = checked_payload "Frame.write" t in
  output_string oc (header t (String.length payload));
  output_string oc payload
