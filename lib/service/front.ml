module Json = Urm_util.Json
module Metrics = Urm_obs.Metrics

type executor = Domains | Threads

type config = {
  name : string;
  host : string;
  port : int;
  executors : int;
  executor : executor;
  queue_depth : int;
  send_timeout : float;
}

(* ------------------------------------------------------------------ *)
(* Sliding latency window for percentile reporting *)

type ring = {
  buf : float array;
  mutable filled : int;
  mutable next : int;
  rlock : Mutex.t;
}

let ring_create n =
  { buf = Array.make n 0.; filled = 0; next = 0; rlock = Mutex.create () }

let ring_add r x =
  Mutex.lock r.rlock;
  r.buf.(r.next) <- x;
  r.next <- (r.next + 1) mod Array.length r.buf;
  r.filled <- min (r.filled + 1) (Array.length r.buf);
  Mutex.unlock r.rlock

let ring_to_list r =
  Mutex.lock r.rlock;
  let out = List.init r.filled (fun i -> r.buf.(i)) in
  Mutex.unlock r.rlock;
  out

(* ------------------------------------------------------------------ *)

(* A batch frame is admitted as one job (one queue slot, one executor):
   its requests execute sequentially and are answered positionally in a
   single [Batch_reply].  Requests that failed to parse occupy their slot
   as pre-rendered error replies. *)
type work =
  | Single of Protocol.request
  | Batched of (Protocol.request, string) result list

type job = { jconn : Wire.t; work : work; enqueued : float }

(* The registry handles a caller asked to have recorded besides the
   per-instance counts. *)
type registry = {
  r_requests : Metrics.counter;
  r_rejected : Metrics.counter;
  r_depth : Metrics.counter;
  r_timer : Metrics.timer;
}

type t = {
  cfg : config;
  sock : Unix.file_descr;
  bound_port : int;
  registry : registry option;
  requests : int Atomic.t;
  rejected : int Atomic.t;
  queue : job Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  mutable stopping : bool;
  mutable conns : Wire.t list;
  mutable readers : Thread.t list;
  conns_lock : Mutex.t;
  lat : ring;
  mutable joins : (unit -> unit) list;
}

let port t = t.bound_port
let requests t = Atomic.get t.requests

let depth t =
  Mutex.lock t.qlock;
  let n = Queue.length t.queue in
  Mutex.unlock t.qlock;
  n

let connections t =
  Mutex.lock t.conns_lock;
  let n = List.length t.conns in
  Mutex.unlock t.conns_lock;
  n

let stopping t =
  Mutex.lock t.qlock;
  let s = t.stopping in
  Mutex.unlock t.qlock;
  s

let stop t =
  Mutex.lock t.qlock;
  if not t.stopping then begin
    t.stopping <- true;
    Condition.broadcast t.qcond
  end;
  Mutex.unlock t.qlock

(* ------------------------------------------------------------------ *)
(* Reporting *)

type latency = { count : int; p50 : float; p95 : float; p99 : float; mean : float }

(* One ring snapshot feeds every figure.  Totalised percentiles
   ({!Urm_util.Stats.percentile_or_zero}): the window may legitimately be
   empty — polled before the first request, or an idle shard inside a
   roll-up — and must report 0 rather than raise into the metrics path. *)
let latency t =
  let lats = ring_to_list t.lat in
  let p q = Urm_util.Stats.percentile_or_zero q lats in
  {
    count = List.length lats;
    p50 = p 0.5;
    p95 = p 0.95;
    p99 = p 0.99;
    mean = Urm_util.Stats.mean lats;
  }

let num n = Json.Num (float_of_int n)

let latency_json t =
  let l = latency t in
  Json.Obj
    [
      ("count", num l.count);
      ("p50", Json.Num l.p50);
      ("p95", Json.Num l.p95);
      ("p99", Json.Num l.p99);
      ("mean", Json.Num l.mean);
    ]

let queue_json t =
  Json.Obj
    [ ("depth", num (depth t)); ("rejected", num (Atomic.get t.rejected)) ]

(* ------------------------------------------------------------------ *)
(* Executors *)

(* Every request reduces to a typed reply: executors are never respawned,
   so an exception escaping the handler would permanently shrink the pool
   and silently drop the client's reply. *)
let guard handler (req : Protocol.request) =
  let id = req.Protocol.id in
  match handler req with
  | reply -> reply
  | exception Failure m -> Protocol.error ~id ~code:"bad_request" m
  | exception Invalid_argument m -> Protocol.error ~id ~code:"bad_request" m
  | exception Not_found -> Protocol.error ~id ~code:"not_found" "not found"
  | exception exn -> Protocol.error ~id ~code:"error" (Printexc.to_string exn)

let handle t handler job =
  let executed =
    match job.work with
    | Single req ->
      Wire.send_reply ~id:req.Protocol.id job.jconn (guard handler req);
      1
    | Batched items ->
      let replies =
        List.map
          (function
            | Ok req -> (req.Protocol.id, guard handler req)
            | Error pre -> (Json.Null, pre))
          items
      in
      Wire.send_batch_reply job.jconn replies;
      List.length items
  in
  let dt = Urm_util.Timer.now () -. job.enqueued in
  (match t.registry with
  | Some r ->
    Metrics.record r.r_timer dt;
    Metrics.incr ~by:executed r.r_requests
  | None -> ());
  ignore (Atomic.fetch_and_add t.requests executed);
  ring_add t.lat dt

let executor_loop t handler () =
  let rec loop () =
    Mutex.lock t.qlock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.qcond t.qlock
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.qlock (* drained, stopping *)
    else begin
      let job = Queue.pop t.queue in
      Option.iter (fun r -> Metrics.incr ~by:(-1) r.r_depth) t.registry;
      Mutex.unlock t.qlock;
      handle t handler job;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Admission and connection readers *)

(* Free admission slots right now — the credit value of [Hello_ack] and
   [Credit] frames.  Advisory: a snapshot, not a reservation. *)
let free_slots t = max 0 (t.cfg.queue_depth - depth t)

let reject work conn ~code ~message =
  let err (req : Protocol.request) =
    Protocol.error ~id:req.Protocol.id ~code message
  in
  match work with
  | Single req -> Wire.send_reply conn (err req)
  | Batched items ->
    Wire.send_frame conn
      (Frame.Batch_reply
         (List.map (function Ok req -> err req | Error pre -> pre) items))

let enqueue t conn work =
  Mutex.lock t.qlock;
  if t.stopping then begin
    Mutex.unlock t.qlock;
    reject work conn ~code:"unavailable" ~message:(t.cfg.name ^ " is draining")
  end
  else if Queue.length t.queue >= t.cfg.queue_depth then begin
    Mutex.unlock t.qlock;
    Atomic.incr t.rejected;
    Option.iter (fun r -> Metrics.incr r.r_rejected) t.registry;
    reject work conn ~code:"busy" ~message:"admission queue is full";
    (* Explicit backpressure for framed clients: volunteer the current
       credit alongside the rejection so a pipelining sender can pace
       itself instead of spinning on [busy]. *)
    if conn.Wire.mode = Wire.Frames then
      Wire.send_frame conn (Frame.Credit (free_slots t))
  end
  else begin
    Queue.push { jconn = conn; work; enqueued = Urm_util.Timer.now () } t.queue;
    Option.iter (fun r -> Metrics.incr r.r_depth) t.registry;
    Condition.signal t.qcond;
    Mutex.unlock t.qlock
  end

let reader t conn =
  let parse_item doc =
    match Protocol.parse_request doc with
    | Ok req -> Ok req
    | Error msg ->
      Error
        (Protocol.error ~id:Json.Null ~code:"bad_request"
           ("malformed request: " ^ msg))
  in
  let enqueue_doc doc =
    match parse_item doc with
    | Ok req -> enqueue t conn (Single req)
    | Error pre -> Wire.send_reply conn pre
  in
  (* Returns [true] to keep reading, [false] to drop the connection. *)
  let step () =
    match Wire.recv conn with
    | Wire.Eof -> false
    | Wire.Line line ->
      if not (String.equal (String.trim line) "") then enqueue_doc line;
      true
    | Wire.Framed (Frame.Request doc) ->
      enqueue_doc doc;
      true
    | Wire.Framed (Frame.Batch docs) ->
      (match List.map parse_item docs with
      | [] -> Wire.send_frame conn (Frame.Batch_reply [])
      | items -> enqueue t conn (Batched items));
      true
    | Wire.Framed (Frame.Hello _) ->
      Wire.send_frame conn (Frame.Hello_ack (free_slots t));
      true
    | Wire.Framed (Frame.Credit _) ->
      Wire.send_frame conn (Frame.Credit (free_slots t));
      true
    | Wire.Framed
        (Frame.Hello_ack _ | Frame.Reply _ | Frame.Batch_reply _
        | Frame.Proto_error _) ->
      Wire.send_frame conn
        (Frame.Proto_error
           ("unexpected_frame", "frame type flows server-to-client only"));
      false
    | Wire.Malformed err ->
      (* Answer the malformation, then close: a corrupted binary stream
         has no resynchronisation point. *)
      Wire.send_frame conn
        (Frame.Proto_error (Frame.error_code err, Frame.error_message err));
      false
  in
  let rec loop () = if step () then loop () in
  loop ();
  Wire.teardown conn;
  (* Drop this connection's record and our own thread handle so a
     long-lived process accepting many short connections doesn't
     accumulate dead entries.  Queued jobs may still reference [conn];
     writes check [alive] first. *)
  let self = Thread.id (Thread.self ()) in
  Mutex.lock t.conns_lock;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  t.readers <- List.filter (fun th -> Thread.id th <> self) t.readers;
  Mutex.unlock t.conns_lock

let acceptor_loop t () =
  let rec loop () =
    if stopping t then ()
    else begin
      (* Short select timeout so a drain is noticed promptly even with no
         incoming connections. *)
      (match Unix.select [ t.sock ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept t.sock with
        | fd, _ ->
          (* Bound blocking reply writes: a stalled client whose socket
             buffer fills must not wedge an executor forever — the
             timed-out write marks the connection dead ({!Wire}). *)
          (if t.cfg.send_timeout > 0. then
             try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.send_timeout
             with Unix.Unix_error _ | Invalid_argument _ -> ());
          let conn = Wire.of_fd fd in
          Mutex.lock t.conns_lock;
          t.conns <- conn :: t.conns;
          t.readers <- Thread.create (reader t) conn :: t.readers;
          Mutex.unlock t.conns_lock
        | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  try Unix.close t.sock with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)

let listen ?metrics (cfg : config) =
  (* A write to a disconnected client must surface as EPIPE/Sys_error in
     {!Wire} — the default SIGPIPE action would terminate the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen sock 64
   with e ->
     Unix.close sock;
     raise e);
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  {
    cfg;
    sock;
    bound_port;
    registry =
      Option.map
        (fun m ->
          {
            r_requests = Metrics.counter m "requests";
            r_rejected = Metrics.counter m "queue.rejected";
            r_depth = Metrics.counter m "queue.depth";
            r_timer = Metrics.timer m "phase.request";
          })
        metrics;
    requests = Atomic.make 0;
    rejected = Atomic.make 0;
    queue = Queue.create ();
    qlock = Mutex.create ();
    qcond = Condition.create ();
    stopping = false;
    conns = [];
    readers = [];
    conns_lock = Mutex.create ();
    lat = ring_create 4096;
    joins = [];
  }

let serve t handler =
  let spawn () =
    match t.cfg.executor with
    | Domains ->
      let d = Domain.spawn (executor_loop t handler) in
      fun () -> Domain.join d
    | Threads ->
      let th = Thread.create (executor_loop t handler) () in
      fun () -> Thread.join th
  in
  let executors = List.init t.cfg.executors (fun _ -> spawn ()) in
  let acceptor = Thread.create (acceptor_loop t) () in
  t.joins <- (fun () -> Thread.join acceptor) :: executors

let wait t =
  List.iter (fun join -> join ()) t.joins;
  Mutex.lock t.conns_lock;
  let conns = t.conns and readers = t.readers in
  t.conns <- [];
  t.readers <- [];
  Mutex.unlock t.conns_lock;
  List.iter Wire.wake conns;
  List.iter Thread.join readers;
  List.iter Wire.teardown conns
