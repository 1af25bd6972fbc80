type mode = Lines | Frames

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  wlock : Mutex.t;
  mutable alive : bool;
  mutable closed : bool;
  mutable mode : mode;
}

let of_fd fd =
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    wlock = Mutex.create ();
    alive = true;
    closed = false;
    mode = Lines;
  }

type event =
  | Line of string
  | Framed of Frame.t
  | Malformed of Frame.error
  | Eof

let recv t =
  match input_char t.ic with
  | exception (End_of_file | Sys_error _) -> Eof
  | c when c = Frame.magic -> (
    t.mode <- Frames;
    match Frame.read_body t.ic with
    | Ok f -> Framed f
    | Error e -> Malformed e)
  | c when t.mode = Frames -> Malformed (Frame.Bad_magic c)
  | c -> (
    (* Line mode: [c] is the first byte of a request line. *)
    match input_line t.ic with
    | rest -> Line (String.make 1 c ^ rest)
    | exception (End_of_file | Sys_error _) -> Line (String.make 1 c))

let send_raw t f =
  Mutex.lock t.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.wlock)
    (fun () ->
      if t.alive then
        try
          f t.oc;
          flush t.oc
        with Sys_error _ | Unix.Unix_error _ | Sys_blocked_io ->
          (* [Sys_blocked_io] is a write that outlived SO_SNDTIMEO.  Either
             way the stream may end mid-message: stop writing, and shut the
             socket down so the reader sees end of input and tears down. *)
          t.alive <- false;
          (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()))

(* Every reply document is bounded by one frame's payload, in either
   dialect: a larger one would make [Frame.write] raise in the writer,
   losing the reply and the executor behind it.  It is answered with a
   typed error for the same request id instead. *)
let reply_too_large ~id n =
  Protocol.error ~id ~code:"reply_too_large"
    (Printf.sprintf "reply of %d bytes exceeds the %d-byte frame limit" n
       Frame.max_payload)

let capped ~id doc =
  let n = String.length doc in
  if n <= Frame.max_payload then doc else reply_too_large ~id n

let send_reply ?(id = Urm_util.Json.Null) t doc =
  let doc = capped ~id doc in
  match t.mode with
  | Frames -> send_raw t (fun oc -> Frame.write oc (Frame.Reply doc))
  | Lines ->
    send_raw t (fun oc ->
        output_string oc doc;
        output_char oc '\n')

let send_frame t frame = send_raw t (fun oc -> Frame.write oc frame)

(* A batch's replies share one frame: when together they overflow it
   (each costs its length plus at most a 10-byte varint), the largest are
   replaced by typed errors until the rest fit. *)
let send_batch_reply t items =
  let ids = Array.of_list (List.map fst items) in
  let docs = Array.of_list (List.map (fun (id, doc) -> capped ~id doc) items) in
  let excess =
    ref
      (Array.fold_left (fun acc d -> acc + String.length d + 10) 10 docs
      - Frame.max_payload)
  in
  List.init (Array.length docs) Fun.id
  |> List.sort (fun i j ->
         compare (String.length docs.(j)) (String.length docs.(i)))
  |> List.iter (fun i ->
         if !excess > 0 then begin
           let n = String.length docs.(i) in
           let err = reply_too_large ~id:ids.(i) n in
           excess := !excess - (n - String.length err);
           docs.(i) <- err
         end);
  send_frame t (Frame.Batch_reply (Array.to_list docs))

let wake t =
  Mutex.lock t.wlock;
  if t.alive then
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Mutex.unlock t.wlock

let teardown t =
  Mutex.lock t.wlock;
  t.alive <- false;
  if not t.closed then begin
    t.closed <- true;
    (* Through the channel, so a reply left half-written by a failed write
       is dropped here and not flushed into a reused fd at exit. *)
    close_out_noerr t.oc
  end;
  Mutex.unlock t.wlock
