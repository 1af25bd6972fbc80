(* The front door ({!Urm_service.Front}) shared by the server and the
   shard router: a reply write that outlives the send timeout must cost
   the stalled connection, not the executor behind it; and every count a
   [metrics] reply shows belongs to the server that answers it, even with
   several servers in one process. *)

module Json = Urm_util.Json
module Server = Urm_service.Server
module Session = Urm_service.Session
module Client = Urm_service.Client

let member k j = Option.value ~default:Json.Null (Json.member k j)

let num k j =
  match member k j with
  | Json.Num f -> int_of_float f
  | other -> Alcotest.failf "%s: not a number: %s" k (Json.to_string other)

let connect_raw port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* One ND-JSON ping on a fresh connection: [true] when the pong line
   arrives within [secs]. *)
let ping_within port secs =
  let fd = connect_raw port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd "{\"id\":1,\"op\":\"ping\"}\n";
      let deadline = Unix.gettimeofday () +. secs in
      let buf = Buffer.create 64 and chunk = Bytes.create 256 in
      let rec read () =
        let left = deadline -. Unix.gettimeofday () in
        if String.contains (Buffer.contents buf) '\n' then true
        else if left <= 0. then false
        else
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> false
          | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> false
            | n ->
              Buffer.add_subbytes buf chunk 0 n;
              read ())
      in
      read ()
      && String.length (Buffer.contents buf) > 0
      &&
      match Urm_service.Protocol.parse_reply (String.trim (Buffer.contents buf)) with
      | Ok (Urm_service.Protocol.Ok _) -> true
      | _ -> false)

(* Two clients pipeline Q4 queries whose replies (22,500 answers each,
   megabytes) far exceed the socket buffers, and never read.  The one
   executor's first write to each blocks until the send timeout; the
   connection must be given up and the executor must go on to answer a
   fresh client's ping. *)
let test_send_timeout_frees_executor () =
  let server =
    Server.start
      { Server.default_config with port = 0; workers = 1; send_timeout = 0.3 }
  in
  let port = Server.port server in
  (match
     Session.open_session (Server.sessions server) ~name:"big" ~seed:42
       ~scale:0.01 ~h:2 ~target:"Excel" ()
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let query =
    "{\"id\":1,\"op\":\"query\",\"params\":{\"session\":\"big\",\"query\":\"Q4\",\
     \"algorithm\":\"o-sharing\",\"answers\":100000}}\n"
  in
  let stalled =
    List.init 2 (fun _ ->
        let fd = connect_raw port in
        (try Unix.setsockopt_int fd Unix.SO_RCVBUF 4096
         with Unix.Unix_error _ -> ());
        write_all fd (String.concat "" (List.init 8 (fun _ -> query)));
        fd)
  in
  let answered = ping_within port 30. in
  List.iter Unix.close stalled;
  Alcotest.(check bool) "ping answered past two stalled clients" true answered;
  Server.stop server;
  Server.wait server

let metrics_of port =
  let c = Client.connect ~port () in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match Client.call c ~op:"metrics" [] with
      | Ok m -> m
      | Error (code, m) -> Alcotest.failf "metrics: %s: %s" code m)

(* Server A gets 50 pings and a cache miss then hit; server B, in the same
   process, must still report none of it. *)
let test_metrics_per_instance () =
  let start () =
    Server.start { Server.default_config with port = 0; workers = 1 }
  in
  let a = start () and b = start () in
  (match
     Session.open_session (Server.sessions a) ~name:"s" ~seed:7 ~scale:0.005
       ~h:4 ~target:"Excel" ()
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let c = Client.connect ~port:(Server.port a) () in
  for _ = 1 to 50 do
    match Client.call c ~op:"ping" [] with
    | Ok _ -> ()
    | Error (code, m) -> Alcotest.failf "ping: %s: %s" code m
  done;
  for _ = 1 to 2 do
    match
      Client.call c ~op:"query"
        [ ("session", Json.Str "s"); ("query", Json.Str "Q1") ]
    with
    | Ok _ -> ()
    | Error (code, m) -> Alcotest.failf "query: %s: %s" code m
  done;
  Client.close c;
  let ma = metrics_of (Server.port a) and mb = metrics_of (Server.port b) in
  (* One executor answers in order, so every earlier request is counted
     by the time [metrics] runs; [metrics] itself is not yet. *)
  Alcotest.(check int) "A counts its own requests" 52 (num "requests" ma);
  Alcotest.(check int) "A's latency window" 52 (num "count" (member "latency" ma));
  Alcotest.(check (pair int int)) "A's cache" (1, 1)
    (num "hit" (member "cache" ma), num "miss" (member "cache" ma));
  Alcotest.(check int) "B saw no requests" 0 (num "requests" mb);
  Alcotest.(check int) "B's latency window is empty" 0
    (num "count" (member "latency" mb));
  Alcotest.(check (pair int int)) "B's cache is untouched" (0, 0)
    (num "hit" (member "cache" mb), num "miss" (member "cache" mb));
  Alcotest.(check int) "B's queue is empty" 0 (num "depth" (member "queue" mb));
  Alcotest.(check int) "B's one connection is the metrics call" 1
    (num "connections" mb);
  List.iter
    (fun s ->
      Server.stop s;
      Server.wait s)
    [ a; b ]

let suite =
  [
    Alcotest.test_case "send timeout frees the executor" `Quick
      test_send_timeout_frees_executor;
    Alcotest.test_case "metrics are per server" `Quick test_metrics_per_instance;
  ]
