(* The binary frame protocol: qcheck encode/decode round-trips for every
   frame type, hand-built adversarial headers for every error path, and a
   live fuzz — 1000 adversarial byte strings thrown at a running server
   and at a one-shard router, which must answer each malformed frame with
   a [Proto_error] (where the connection is still writable), never crash,
   and tear every connection down. *)

module Json = Urm_util.Json
module Frame = Urm_service.Frame
module Server = Urm_service.Server
module Client = Urm_service.Client
module Router = Urm_shard.Router

(* ------------------------------------------------------------------ *)
(* Frame crafting: a private re-implementation of the header encoder so
   tests can lie about any field while keeping the CRC honest (or not). *)

let add_varint buf n =
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

let add_be32 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (n land 0xFF))

let craft ?(version = Frame.version) ?declared_len ?(bad_crc = false) ~tag
    payload =
  let buf = Buffer.create 64 in
  Buffer.add_char buf Frame.magic;
  add_varint buf (Option.value ~default:(String.length payload) declared_len);
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (Char.chr tag);
  let crc = Urm_util.Crc32.digest (Buffer.contents buf) in
  add_be32 buf (if bad_crc then crc lxor 0xA5A5 else crc);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* The 63-bit overflow attack: a 9-byte LEB128 length (0x80 x8 then
   0x40) would decode to 2^62 and wrap negative under further shifts if
   accepted, slipping past the [> max_payload] check into the payload
   read.  The decoder's varint byte cap must reject it even with an
   honest CRC on the header. *)
let overflow_len_frame =
  let buf = Buffer.create 16 in
  Buffer.add_char buf Frame.magic;
  Buffer.add_string buf "\x80\x80\x80\x80\x80\x80\x80\x80\x40";
  Buffer.add_char buf (Char.chr Frame.version);
  Buffer.add_char buf '\x03';
  let crc = Urm_util.Crc32.digest (Buffer.contents buf) in
  add_be32 buf crc;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Round-trips *)

let frame_gen =
  let open QCheck.Gen in
  let doc = string_size ~gen:printable (int_range 0 200) in
  let blob = string_size (int_range 0 64) in
  oneof
    [
      map (fun s -> Frame.Hello s) blob;
      map (fun n -> Frame.Hello_ack n) (int_range 0 100_000);
      map (fun s -> Frame.Request s) doc;
      map (fun s -> Frame.Reply s) doc;
      map (fun ss -> Frame.Batch ss) (list_size (int_range 0 8) blob);
      map (fun ss -> Frame.Batch_reply ss) (list_size (int_range 0 8) doc);
      map (fun n -> Frame.Credit n) (int_range 0 100_000);
      map2
        (fun c m -> Frame.Proto_error (c, m))
        (string_size ~gen:printable (int_range 1 12))
        doc;
    ]

let frame_equal a b =
  match (a, b) with
  | Frame.Hello x, Frame.Hello y
  | Frame.Request x, Frame.Request y
  | Frame.Reply x, Frame.Reply y ->
    String.equal x y
  | Frame.Hello_ack x, Frame.Hello_ack y | Frame.Credit x, Frame.Credit y ->
    x = y
  | Frame.Batch x, Frame.Batch y | Frame.Batch_reply x, Frame.Batch_reply y ->
    List.length x = List.length y && List.for_all2 String.equal x y
  | Frame.Proto_error (c1, m1), Frame.Proto_error (c2, m2) ->
    String.equal c1 c2 && String.equal m1 m2
  | _ -> false

let qcheck_roundtrip =
  QCheck.Test.make ~name:"every frame survives encode/decode" ~count:500
    (QCheck.make frame_gen) (fun f ->
      let s = Frame.encode f in
      match Frame.decode s with
      | Ok (f', consumed) -> frame_equal f f' && consumed = String.length s
      | Error _ -> false)

let qcheck_chained =
  QCheck.Test.make ~name:"concatenated frames decode in sequence" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 5) frame_gen)) (fun fs ->
      let s = String.concat "" (List.map Frame.encode fs) in
      let rec walk pos = function
        | [] -> pos = String.length s
        | f :: rest -> (
          match Frame.decode ~pos s with
          | Ok (f', pos') -> frame_equal f f' && walk pos' rest
          | Error _ -> false)
      in
      walk 0 fs)

let qcheck_truncation =
  QCheck.Test.make ~name:"every strict prefix is an error, never a crash"
    ~count:100 (QCheck.make frame_gen) (fun f ->
      let s = Frame.encode f in
      List.for_all
        (fun cut ->
          match Frame.decode (String.sub s 0 cut) with
          | Ok _ -> false
          | Error _ -> true)
        (List.init (String.length s) Fun.id))

(* ------------------------------------------------------------------ *)
(* Error paths, one by one *)

let expect_error label expected input =
  match Frame.decode input with
  | Ok _ -> Alcotest.failf "%s decoded" label
  | Error e ->
    Alcotest.(check string) label expected (Frame.error_code e)

let test_decode_errors () =
  expect_error "empty input" "truncated" "";
  expect_error "foreign first byte" "bad_magic" "{\"op\":\"ping\"}";
  expect_error "flipped checksum" "bad_crc"
    (craft ~bad_crc:true ~tag:0x03 "{}");
  expect_error "future version, honest crc" "version_skew"
    (craft ~version:2 ~tag:0x03 "{}");
  expect_error "unknown tag, honest crc" "bad_tag" (craft ~tag:0x7F "{}");
  expect_error "declared length beyond the limit" "frame_too_large"
    (craft ~declared_len:(Frame.max_payload + 1) ~tag:0x03 "");
  expect_error "payload shorter than declared" "truncated"
    (craft ~declared_len:1000 ~tag:0x03 "{}");
  expect_error "overlong varint length" "frame_too_large"
    (String.make 1 Frame.magic ^ String.make 10 '\xFF');
  expect_error "63-bit overflow varint, honest crc" "frame_too_large"
    overflow_len_frame;
  expect_error "five-byte length beyond the limit" "frame_too_large"
    (craft ~declared_len:(1 lsl 28) ~tag:0x03 "");
  (* Header checks run before the payload is interpreted: a bad CRC wins
     over the version, the version over the tag. *)
  expect_error "crc beats version" "bad_crc"
    (craft ~version:9 ~bad_crc:true ~tag:0x03 "{}");
  expect_error "version beats tag" "version_skew"
    (craft ~version:9 ~tag:0x7F "{}")

let test_payload_errors () =
  expect_error "hello-ack with trailing bytes" "bad_payload"
    (craft ~tag:0x02 "\x01garbage");
  expect_error "credit with empty payload" "bad_payload" (craft ~tag:0x07 "");
  expect_error "batch item overruns payload" "bad_payload"
    (craft ~tag:0x05 "\x01\x7Fxy");
  expect_error "proto-error without json" "bad_payload"
    (craft ~tag:0x08 "not json");
  expect_error "proto-error missing fields" "bad_payload"
    (craft ~tag:0x08 "{\"code\":3}")

let test_error_messages_are_distinct () =
  let codes =
    List.map Frame.error_code
      [
        Frame.Truncated;
        Frame.Bad_magic 'x';
        Frame.Bad_crc;
        Frame.Bad_version 2;
        Frame.Bad_tag 0x7F;
        Frame.Oversized 1;
        Frame.Bad_payload "m";
      ]
  in
  Alcotest.(check int) "seven distinct codes" 7
    (List.length (List.sort_uniq String.compare codes))

(* ------------------------------------------------------------------ *)
(* Live-server fuzz *)

let recv_all fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
   with Unix.Unix_error _ -> ());
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ();
  Buffer.contents buf

let frames_of_bytes s =
  let rec walk pos acc =
    if pos >= String.length s then List.rev acc
    else
      match Frame.decode ~pos s with
      | Ok (f, pos') -> walk pos' (f :: acc)
      | Error _ -> List.rev acc
  in
  walk 0 []

(* One adversarial exchange: send the bytes, read whatever comes back
   until the server closes, return the decoded reply frames. *)
let throw_at port bytes =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let b = Bytes.of_string bytes in
      ignore (Unix.write fd b 0 (Bytes.length b));
      (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      frames_of_bytes (recv_all fd))

let adversarial_gen =
  let open QCheck.Gen in
  let valid_request =
    return (Frame.encode (Frame.Request "{\"op\":\"ping\",\"id\":1}"))
  in
  oneof
    [
      (* Truncation at a random cut. *)
      (let* s = valid_request in
       let* cut = int_range 1 (String.length s - 1) in
       return (String.sub s 0 cut));
      (* One corrupted byte anywhere in a valid frame. *)
      (let* s = valid_request in
       let* i = int_range 1 (String.length s - 1) in
       let* c = char in
       let b = Bytes.of_string s in
       Bytes.set b i c;
       return (Bytes.to_string b));
      (* Version skew with an honest CRC. *)
      (let* v = int_range 2 255 in
       return (craft ~version:v ~tag:0x03 "{}"));
      (* Unknown tag with an honest CRC. *)
      (let* tag = oneof [ return 0x00; int_range 0x09 0xFF ] in
       return (craft ~tag "{}"));
      (* Oversized declared length. *)
      (let* extra = int_range 1 1_000_000 in
       return (craft ~declared_len:(Frame.max_payload + extra) ~tag:0x03 ""));
      (* Garbage after a valid frame: the request must be answered, the
         garbage must kill the connection. *)
      (let* s = valid_request in
       let* junk = string_size (int_range 1 32) in
       return (s ^ String.make 1 Frame.magic ^ junk));
      (* Client-sent server-only frame types. *)
      (let* f =
         oneofl
           [
             Frame.Reply "{}";
             Frame.Hello_ack 3;
             Frame.Batch_reply [ "{}" ];
             Frame.Proto_error ("x", "y");
           ]
       in
       return (Frame.encode f));
      (* Pure line noise behind the magic byte. *)
      (let* junk = string_size (int_range 0 64) in
       return (String.make 1 Frame.magic ^ junk));
    ]

(* The fuzz body, against any front door on [port]; [connections] reads
   its live connection count for the leak check. *)
let survives_fuzz ~port ~connections =
  let baseline = connections () in
  let rand = Random.State.make [| 0xF5AE; 9 |] in
  let n = 1000 in
  let got_proto_error = ref 0 and got_reply = ref 0 in
  for _ = 1 to n do
    let bytes = QCheck.Gen.generate1 ~rand adversarial_gen in
    let replies = throw_at port bytes in
    List.iter
      (function
        | Frame.Proto_error _ -> incr got_proto_error
        | Frame.Reply _ -> incr got_reply
        | _ -> ())
      replies
  done;
  (* A deterministic subset with a guaranteed writable connection must
     have produced typed protocol errors. *)
  let must_err label bytes expected_code =
    match throw_at port bytes with
    | [ Frame.Proto_error (code, _) ] ->
      Alcotest.(check string) label expected_code code
    | frames ->
      Alcotest.failf "%s: got %d frames, wanted one proto-error" label
        (List.length frames)
  in
  must_err "bad crc is reported" (craft ~bad_crc:true ~tag:0x03 "{}") "bad_crc";
  must_err "version skew is reported" (craft ~version:7 ~tag:0x03 "{}")
    "version_skew";
  must_err "bad tag is reported" (craft ~tag:0x55 "{}") "bad_tag";
  must_err "oversized is reported"
    (craft ~declared_len:(Frame.max_payload + 1) ~tag:0x03 "")
    "frame_too_large";
  must_err "overflowing varint length is reported" overflow_len_frame
    "frame_too_large";
  (* A pipelined request followed by garbage: the garbage must yield the
     typed error; the request's reply races the reader's close (the
     executor answers asynchronously), so it may or may not get out. *)
  (match
     throw_at port
       (Frame.encode (Frame.Request "{\"op\":\"ping\",\"id\":1}")
       ^ craft ~bad_crc:true ~tag:0x03 "{}")
   with
  | [ Frame.Reply _; Frame.Proto_error ("bad_crc", _) ]
  | [ Frame.Proto_error ("bad_crc", _); Frame.Reply _ ]
  | [ Frame.Proto_error ("bad_crc", _) ] -> ()
  | frames ->
    Alcotest.failf
      "mid-stream garbage: got %d frames, wanted the bad_crc proto-error \
       (plus at most the racing reply)"
      (List.length frames));
  Alcotest.(check bool) "fuzz produced protocol errors" true (!got_proto_error > 50);
  (* The server must still serve both wire dialects... *)
  let check_ping framed =
    let c = Client.connect ~framed ~port () in
    (match Client.call c ~op:"ping" [] with
    | Ok (Json.Obj [ ("pong", Json.Bool true) ]) -> ()
    | Ok j -> Alcotest.failf "odd pong: %s" (Json.to_string j)
    | Error (code, m) -> Alcotest.failf "post-fuzz ping: %s: %s" code m);
    Client.close c
  in
  check_ping false;
  check_ping true;
  (* ... and must not leak a single fuzz connection. *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec settle () =
    let live = connections () in
    if live <= baseline then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "leaked connections: %d live, baseline %d" live baseline
    else begin
      Thread.delay 0.05;
      settle ()
    end
  in
  settle ()

let test_server_survives_fuzz () =
  let server =
    Server.start
      { Server.default_config with port = 0; workers = 2; queue_depth = 16 }
  in
  survives_fuzz ~port:(Server.port server) ~connections:(fun () ->
      Server.connection_count server);
  Server.stop server;
  Server.wait server

(* The router shares the server's front door; it reports its live
   connections in [metrics] (the probe's own connection included, in the
   baseline as in every later reading). *)
let test_router_survives_fuzz () =
  match Router.start { Router.default_config with port = 0; shards = 1 } with
  | Error m -> Alcotest.fail m
  | Ok router ->
    let port = Router.port router in
    let connections () =
      let c = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.call c ~op:"metrics" [] with
          | Ok m -> (
            match Json.member "router" m with
            | Some r -> (
              match Json.member "connections" r with
              | Some (Json.Num n) -> int_of_float n
              | _ -> Alcotest.fail "router metrics lack \"connections\"")
            | None -> Alcotest.fail "metrics lack \"router\"")
          | Error (code, m) -> Alcotest.failf "metrics: %s: %s" code m)
    in
    survives_fuzz ~port ~connections;
    Router.stop router;
    Router.wait router

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Over-cap replies *)

(* A reply document longer than one frame's payload must come back as a
   typed [reply_too_large] error for its request id, and the connection
   must keep carrying later replies (before the cap, [Frame.encode]
   raised inside the writer and the executor behind it died).  Batches
   replace only the replies that overflow their shared frame. *)
let test_reply_too_large () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Urm_service.Wire.of_fd a in
  conn.Urm_service.Wire.mode <- Urm_service.Wire.Frames;
  let ic = Unix.in_channel_of_descr b in
  (* The peer reads concurrently: a batch reply is larger than the socket
     buffer. *)
  let received = ref [] in
  let peer =
    Thread.create
      (fun () ->
        for _ = 1 to 3 do
          if input_char ic = Frame.magic then
            match Frame.read_body ic with
            | Ok f -> received := f :: !received
            | Error _ -> ()
        done)
      ()
  in
  let frames = ref [] in
  let next () =
    match !frames with
    | f :: rest ->
      frames := rest;
      f
    | [] -> Alcotest.fail "missing frame"
  in
  let error_of doc =
    match Urm_service.Protocol.parse_reply doc with
    | Ok (Urm_service.Protocol.Err (id, code, _)) -> (Json.to_string id, code)
    | _ -> Alcotest.failf "wanted an error reply, got %s" doc
  in
  let huge = String.make (Frame.max_payload + 1) 'x' in
  let half = String.make ((Frame.max_payload / 2) + 1) 'y' in
  Urm_service.Wire.send_reply ~id:(Json.Num 7.) conn huge;
  Urm_service.Wire.send_reply ~id:(Json.Num 8.) conn "{\"ok\":true}";
  Urm_service.Wire.send_batch_reply conn
    [ (Json.Num 9., half); (Json.Num 10., "small"); (Json.Num 11., half ^ "z") ];
  Thread.join peer;
  frames := List.rev !received;
  (match next () with
  | Frame.Reply doc ->
    Alcotest.(check (pair string string))
      "typed error for the over-cap reply" ("7", "reply_too_large") (error_of doc)
  | _ -> Alcotest.fail "wanted a reply frame");
  (match next () with
  | Frame.Reply doc ->
    Alcotest.(check string) "the connection still serves" "{\"ok\":true}" doc
  | _ -> Alcotest.fail "wanted a reply frame");
  (match next () with
  | Frame.Batch_reply [ first; second; third ] ->
    Alcotest.(check int) "the smaller half fits" (String.length half)
      (String.length first);
    Alcotest.(check string) "small reply intact" "small" second;
    Alcotest.(check (pair string string))
      "the larger half is replaced" ("11", "reply_too_large") (error_of third)
  | _ -> Alcotest.fail "wanted a three-item batch reply");
  Urm_service.Wire.teardown conn;
  close_in ic

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_chained;
    QCheck_alcotest.to_alcotest qcheck_truncation;
    Alcotest.test_case "header error paths" `Quick test_decode_errors;
    Alcotest.test_case "payload error paths" `Quick test_payload_errors;
    Alcotest.test_case "error codes are distinct" `Quick
      test_error_messages_are_distinct;
    Alcotest.test_case "live server survives 1000 adversarial frames" `Slow
      test_server_survives_fuzz;
    Alcotest.test_case "over-cap replies are typed errors" `Quick
      test_reply_too_large;
    Alcotest.test_case "live router survives 1000 adversarial frames" `Slow
      test_router_survives_fuzz;
  ]
