module Json = Urm_util.Json
module Metrics = Urm_obs.Metrics
module Protocol = Urm_service.Protocol
module Client = Urm_service.Client
module Server = Urm_service.Server
module Wire = Urm_service.Wire
module Frame = Urm_service.Frame
module Partial = Urm_service.Partial

type config = {
  host : string;
  port : int;
  shards : int;
  forwarders : int;
  queue_depth : int;
  respawn : bool;
  worker : Launcher.spec;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    shards = 2;
    forwarders = 4;
    queue_depth = 64;
    respawn = true;
    worker = Launcher.default_spec;
  }

(* ------------------------------------------------------------------ *)

(* What the router remembers about a session — enough to rebuild a
   crashed worker's copy from scratch: the open parameters, plus every
   committed mutation batch.  The log stores the home shard's *resolved*
   batches (ids assigned, rows coerced) so a replay does not depend on
   re-running mutation resolution, and it is kept newest-first so a
   commit is an O(1) cons; {!replay} reverses it.  [sh] is the current
   mapping count (the fan-out range bound), refreshed after mapping-set
   mutations. *)
type sess = {
  sname : string;
  mutable sfp : string;  (** fingerprint — the placement key *)
  mutable sh : int;
  sopen : (string * Json.t) list;
  mutable slog : Json.t list;  (** resolved mutation batches, newest first *)
}

(* Keep the replay log short: past [slog_cap] batches, squash everything
   into one concatenated batch.  A "mutate" commit applies its mutations
   in order atomically, so replaying the squashed batch reaches the same
   catalog and mapping state as replaying the originals one by one (only
   the rebuilt worker's epoch counter differs, never answer content).
   This bounds both the per-commit append cost and the number of replay
   round-trips; memory stays proportional to the total mutation count,
   which is inherent to log-based replay. *)
let slog_cap = 32

let log_batch (s : sess) batch =
  let slog = batch :: s.slog in
  s.slog <-
    (if List.length slog <= slog_cap then slog
     else
       let items =
         List.concat_map
           (function Json.Arr xs -> xs | j -> [ j ])
           (List.rev slog)
       in
       [ Json.Arr items ])

type slot = {
  index : int;
  mutable proc : Launcher.proc option;
  mutable cl : Client.t option;
  slock : Mutex.t;
}

type work =
  | Single of Protocol.request
  | Batched of (Protocol.request, string) result list

type job = { jconn : Wire.t; work : work; enqueued : float }

type ring = {
  buf : float array;
  mutable filled : int;
  mutable next : int;
  rlock : Mutex.t;
}

type t = {
  cfg : config;
  sock : Unix.file_descr;
  bound_port : int;
  slots : slot array;
  sessions : (string, sess) Hashtbl.t;
  sess_lock : Mutex.t;  (** guards [sessions] *)
  admin_lock : Mutex.t;
      (** serialises session-state changes (open/close/mutate) and worker
          respawns, so a replay always sees a consistent log.  Lock order:
          [admin_lock] before any [slot.slock]; never the reverse. *)
  queue : job Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  mutable stopping : bool;
  mutable conns : Wire.t list;
  mutable readers : Thread.t list;
  conns_lock : Mutex.t;
  lat : ring;
  requests : int Atomic.t;
  rejected : int Atomic.t;
  restarts_n : int Atomic.t;
  mutable forwarder_threads : Thread.t array;
  mutable acceptor : Thread.t option;
  mutable health : Thread.t option;
}

let port t = t.bound_port
let restarts t = Atomic.get t.restarts_n

let worker_pids t =
  Array.to_list t.slots
  |> List.filter_map (fun slot ->
         Mutex.lock slot.slock;
         let p = Option.map (fun p -> p.Launcher.pid) slot.proc in
         Mutex.unlock slot.slock;
         p)

let is_stopping t =
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
(* Latency ring (same discipline as the server's) *)

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
(* Worker calls *)

let connect_worker (p : Launcher.proc) =
  Client.connect ~framed:true ~port:p.Launcher.port ()

(* One call to a worker; a transport failure closes the slot's client so
   the next caller (or the health thread) triggers a respawn. *)
let slot_call t slot ~op params =
  ignore t;
  Mutex.lock slot.slock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock slot.slock)
    (fun () ->
      let client =
        match slot.cl with
        | Some c -> Ok c
        | None -> (
          match slot.proc with
          | Some p when Launcher.alive p -> (
            match connect_worker p with
            | c ->
              slot.cl <- Some c;
              Ok c
            | exception _ -> Error "cannot reconnect to the worker")
          | _ -> Error "worker process is down")
      in
      match client with
      | Error m -> Error ("transport", m)
      | Ok c -> (
        match Client.call c ~op params with
        | Error ("transport", m) ->
          (try Client.close c with _ -> ());
          slot.cl <- None;
          Error ("transport", m)
        | r -> r))

let sessions_snapshot t =
  Mutex.lock t.sess_lock;
  let all = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
  Mutex.unlock t.sess_lock;
  List.sort (fun a b -> String.compare a.sname b.sname) all

(* Rebuild a fresh worker's state: every session open, then its mutation
   log in commit order.  Opens are deterministic (same parameters ⇒ same
   instance and fingerprint), so the replica converges exactly. *)
let replay t c =
  let rec each = function
    | [] -> Ok ()
    | s :: rest -> (
      match Client.call c ~op:"open-session" s.sopen with
      | Error (code, m) -> Error (Printf.sprintf "replay open %s: %s: %s" s.sname code m)
      | Ok _ -> (
        let rec mutations = function
          | [] -> Ok ()
          | batch :: more -> (
            match
              Client.call c ~op:"mutate"
                [ ("session", Json.Str s.sname); ("mutations", batch) ]
            with
            | Error (code, m) ->
              Error (Printf.sprintf "replay mutate %s: %s: %s" s.sname code m)
            | Ok _ -> mutations more)
        in
        match mutations (List.rev s.slog) with
        | Error _ as e -> e
        | Ok () -> each rest))
  in
  each (sessions_snapshot t)

(* Caller holds [admin_lock].  No-op when the slot is already healthy
   (a concurrent retry or the health thread beat us to it). *)
let respawn_slot t slot =
  Mutex.lock slot.slock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock slot.slock)
    (fun () ->
      let healthy =
        Option.is_some slot.cl
        && (match slot.proc with Some p -> Launcher.alive p | None -> false)
      in
      if healthy then Ok ()
      else if is_stopping t then Error "router is stopping"
      else begin
      (match slot.cl with
      | Some c ->
        (try Client.close c with _ -> ());
        slot.cl <- None
      | None -> ());
      (match slot.proc with
      | Some p ->
        Launcher.kill p;
        slot.proc <- None
      | None -> ());
      match Launcher.spawn ~spec:t.cfg.worker () with
      | Error m -> Error ("respawn failed: " ^ m)
      | Ok p -> (
        match connect_worker p with
        | exception _ ->
          Launcher.kill p;
          Error "respawned worker refused the connection"
        | c -> (
          match replay t c with
          | Error m ->
            (try Client.close c with _ -> ());
            Launcher.kill p;
            Error m
          | Ok () ->
            slot.proc <- Some p;
            slot.cl <- Some c;
            Atomic.incr t.restarts_n;
            Ok ()))
    end)

let ensure_worker t slot =
  Mutex.lock t.admin_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.admin_lock)
    (fun () -> respawn_slot t slot)

(* The client-facing discipline: one transparent retry against a freshly
   respawned worker, then a typed [shard_unavailable].  [respawn]
   abstracts over whether the caller already holds [admin_lock]. *)
let call_retrying ~respawn t slot ~op params =
  match slot_call t slot ~op params with
  | Error ("transport", m) -> (
    match respawn t slot with
    | Error m2 ->
      Error ("shard_unavailable", Printf.sprintf "shard %d: %s (%s)" slot.index m m2)
    | Ok () -> (
      match slot_call t slot ~op params with
      | Error ("transport", m2) ->
        Error ("shard_unavailable", Printf.sprintf "shard %d: %s" slot.index m2)
      | r -> r))
  | r -> r

let call_with_retry t slot ~op params =
  call_retrying ~respawn:ensure_worker t slot ~op params

(* Under [admin_lock] — respawn directly, no re-lock. *)
let call_admin t slot ~op params =
  call_retrying ~respawn:respawn_slot t slot ~op params

(* ------------------------------------------------------------------ *)
(* Routing *)

let params_of (req : Protocol.request) =
  match req.Protocol.params with Json.Obj fields -> fields | _ -> []

let find_sess t name =
  Mutex.lock t.sess_lock;
  let s = Hashtbl.find_opt t.sessions name in
  Mutex.unlock t.sess_lock;
  s

(* The home shard: rendezvous hash of the session fingerprint (falling
   back to the requested name for sessions the router has not seen, and
   to shard 0 for sessionless requests).  Correctness never depends on
   the choice — every worker holds every session — only load placement
   does, so any deterministic key works. *)
let route_slot t req =
  let shards = Array.length t.slots in
  match Protocol.str_param req "session" with
  | exception Failure _ -> t.slots.(0)
  | None -> t.slots.(0)
  | Some name ->
    let key = match find_sess t name with Some s -> s.sfp | None -> name in
    t.slots.(Hash.owner ~shards key)

let forward t slot (req : Protocol.request) =
  match call_with_retry t slot ~op:req.Protocol.op (params_of req) with
  | Ok result -> Protocol.ok ~id:req.Protocol.id result
  | Error (code, m) -> Protocol.error ~id:req.Protocol.id ~code m

(* ------------------------------------------------------------------ *)
(* Session-state operations: home shard first (its reply is the client's
   reply), then broadcast, under [admin_lock]. *)

let broadcast_rest t ~home ~op params =
  Array.iter
    (fun slot ->
      if slot.index <> home.index then
        match call_admin t slot ~op params with
        | Ok _ -> ()
        | Error _ ->
          (* A logical divergence here would be a determinism bug (same
             deterministic commit over the same state); a transport one
             means the slot died and its respawn replays the log, batch
             included.  Either way the home reply stands. *)
          ())
    t.slots

let exec_open t (req : Protocol.request) =
  let id = req.Protocol.id in
  let params = params_of req in
  Mutex.lock t.admin_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.admin_lock)
    (fun () ->
      let home = route_slot t req in
      match call_admin t home ~op:"open-session" params with
      | Error (code, m) -> Protocol.error ~id ~code m
      | Ok result ->
        let str k = match Json.member k result with Some (Json.Str s) -> Some s | _ -> None in
        let int k =
          match Json.member k result with Some (Json.Num f) -> Some (int_of_float f) | _ -> None
        in
        (match (str "session", str "fingerprint", int "mappings") with
        | Some name, Some fp, Some h ->
          Mutex.lock t.sess_lock;
          (if not (Hashtbl.mem t.sessions name) then
             Hashtbl.replace t.sessions name
               { sname = name; sfp = fp; sh = h; sopen = params; slog = [] });
          Mutex.unlock t.sess_lock
        | _ -> ());
        broadcast_rest t ~home ~op:"open-session" params;
        Protocol.ok ~id result)

let exec_close t (req : Protocol.request) =
  let id = req.Protocol.id in
  let params = params_of req in
  Mutex.lock t.admin_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.admin_lock)
    (fun () ->
      let home = route_slot t req in
      match call_admin t home ~op:"close-session" params with
      | Error (code, m) -> Protocol.error ~id ~code m
      | Ok result ->
        (match Protocol.str_param req "session" with
        | Some name ->
          Mutex.lock t.sess_lock;
          Hashtbl.remove t.sessions name;
          Mutex.unlock t.sess_lock
        | None | (exception Failure _) -> ());
        broadcast_rest t ~home ~op:"close-session" params;
        Protocol.ok ~id result)

(* Refresh the cached mapping count after a mapping-set mutation: ask the
   home worker's session listing. *)
let refresh_h t home (s : sess) =
  match call_admin t home ~op:"sessions" [] with
  | Error _ -> ()
  | Ok result -> (
    match Json.member "sessions" result with
    | Some (Json.Arr items) ->
      List.iter
        (fun item ->
          match (Json.member "session" item, Json.member "mappings" item) with
          | Some (Json.Str n), Some (Json.Num h) when String.equal n s.sname ->
            s.sh <- int_of_float h
          | _ -> ())
        items
    | _ -> ())

let exec_mutate t (req : Protocol.request) =
  let id = req.Protocol.id in
  let params = params_of req in
  Mutex.lock t.admin_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.admin_lock)
    (fun () ->
      let home = route_slot t req in
      let sess =
        match Protocol.str_param req "session" with
        | Some name -> find_sess t name
        | None | (exception Failure _) -> None
      in
      match call_admin t home ~op:"mutate" params with
      | Error (code, m) -> Protocol.error ~id ~code m
      | Ok result ->
        (* The home reply echoes the batch it committed, resolved (rows
           coerced, mapping ids assigned); log and broadcast that form so
           replicas and replays never depend on re-running resolution.
           Log before broadcasting: a worker that dies mid-broadcast is
           replayed from the log, this batch included, so the fleet
           converges even through the crash. *)
        let batch =
          match Json.member "mutations" result with
          | Some (Json.Arr _ as resolved) -> Some resolved
          | _ -> Protocol.param req "mutations"
        in
        (match (sess, batch) with
        | Some s, Some batch -> log_batch s batch
        | _ -> ());
        let bparams =
          match batch with
          | None -> params
          | Some b ->
            List.map
              (fun (k, v) -> if String.equal k "mutations" then (k, b) else (k, v))
              params
        in
        broadcast_rest t ~home ~op:"mutate" bparams;
        (match (sess, Json.member "mappings_changed" result) with
        | Some s, Some (Json.Bool true) -> refresh_h t home s
        | _ -> ());
        Protocol.ok ~id result)

(* ------------------------------------------------------------------ *)
(* The basic-algorithm fan-out *)

let answers_limit req =
  Option.value ~default:20 (Protocol.int_param req "answers")

(* The shared fan-out core: [slot_params ~shards ~h] builds, per attempt,
   the function giving each slot its extra request parameters ([None] for
   a slot with nothing to do).  The basic algorithm fans contiguous
   mapping ranges; the sharing algorithms fan e-unit slots (the worker
   derives the distinct-unit list itself — every worker holds every
   session — and evaluates its contiguous chunk). *)
let fan_out t (s : sess) (req : Protocol.request) ~alg ~slot_params =
  let id = req.Protocol.id in
  let shards = Array.length t.slots in
  let base_params = params_of req in
  let attempt h =
    let params_of_slot = slot_params ~shards ~h in
    (* The sentinel must be an [Error]: a fan-out thread that dies from
       an uncaught exception leaves its slot untouched, and an [Ok]
       sentinel would be silently dropped from the merge as if the range
       were empty.  Only a genuinely empty slot writes [Ok Null]. *)
    let results =
      Array.make shards (Error ("internal", "shard fan-out thread died"))
    in
    let threads =
      Array.init shards (fun i ->
          Thread.create
            (fun () ->
              results.(i) <-
                (match params_of_slot i with
                | None -> Ok Json.Null
                | Some extra -> (
                  try
                    call_with_retry t t.slots.(i) ~op:"query"
                      (base_params @ extra)
                  with exn -> Error ("internal", Printexc.to_string exn))))
            ())
    in
    Array.iter Thread.join threads;
    results
  in
  let results = attempt s.sh in
  (* A stale mapping count (a mutate raced this query) surfaces as the
     worker's typed [stale_range] error; refresh and retry once. *)
  let results =
    let stale =
      Array.exists
        (function Error ("stale_range", _) -> true | _ -> false)
        results
    in
    if stale then begin
      Mutex.lock t.admin_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.admin_lock)
        (fun () -> refresh_h t (t.slots.(Hash.owner ~shards s.sfp)) s);
      attempt s.sh
    end
    else results
  in
  match
    Array.to_list results
    |> List.filter_map (function Error e -> Some e | Ok _ -> None)
  with
  | (code, m) :: _ -> Protocol.error ~id ~code m
  | [] -> (
    let replies =
      Array.to_list results
      |> List.filter_map (function Ok Json.Null -> None | Ok r -> Some r | Error _ -> None)
    in
    match replies with
    | [] -> Protocol.error ~id ~code:"error" "no shard produced a partial answer"
    | first :: _ ->
      (* Replies in ascending range/slot order: [Partial.merge] replays
         every bucket's per-unit additions in the sequential order. *)
      let answer = Partial.merge replies in
      let limit = answers_limit req in
      Protocol.ok ~id
        (Json.Obj
           [
             ( "query",
               Option.value ~default:Json.Null (Json.member "query" first) );
             ("algorithm", Json.Str alg);
             ("size", Json.Num (float_of_int (Urm.Answer.size answer)));
             ("null_prob", Json.Num (Urm.Answer.null_prob answer));
             ("answers", Server.answers_json answer limit);
             ("sharded", Json.Num (float_of_int shards));
           ]))

let fan_basic t (s : sess) (req : Protocol.request) =
  fan_out t s req ~alg:"basic" ~slot_params:(fun ~shards ~h ->
      let ranges = Hash.ranges ~shards ~h in
      fun i ->
        let lo, hi = ranges.(i) in
        if hi <= lo then None
        else
          Some
            [
              ("algorithm", Json.Str "basic");
              ("range_lo", Json.Num (float_of_int lo));
              ("range_hi", Json.Num (float_of_int hi));
            ])

(* The sharing-algorithm fan-out: each slot evaluates its chunk of the
   e-unit list; [expect_h] lets the worker detect a racing mapping-set
   mutation (typed stale_range, retried once after a refresh).  Merging
   replies in ascending slot order replays per-unit contributions in
   ascending unit order — the factorized executor's own accumulation
   order — so the recombined answer is byte-identical to one process. *)
let fan_units t (s : sess) ~alg (req : Protocol.request) =
  fan_out t s req ~alg ~slot_params:(fun ~shards ~h ->
      fun i ->
        Some
          [
            ("algorithm", Json.Str alg);
            ("slot", Json.Num (float_of_int i));
            ("slots", Json.Num (float_of_int shards));
            ("expect_h", Json.Num (float_of_int h));
          ])

let exec_query t (req : Protocol.request) =
  let alg =
    match Protocol.str_param req "algorithm" with
    | Some a -> a
    | None -> "o-sharing"
    | exception Failure _ -> ""
  in
  let sess =
    match Protocol.str_param req "session" with
    | Some name -> find_sess t name
    | None | (exception Failure _) -> None
  in
  let unsliced =
    Protocol.param req "range_lo" = None
    && Protocol.param req "range_hi" = None
    && Protocol.param req "slot" = None
    && Protocol.param req "slots" = None
  in
  match sess with
  | Some s when String.equal alg "basic" && s.sh > 0 && unsliced ->
    fan_basic t s req
  | Some s when List.mem alg Server.unit_fan_algorithms && s.sh > 0 && unsliced ->
    fan_units t s ~alg req
  | _ -> forward t (route_slot t req) req

(* ------------------------------------------------------------------ *)
(* Router-local operations *)

let exec_metrics t =
  let shard_replies =
    Array.map (fun slot -> slot_call t slot ~op:"metrics" []) t.slots
  in
  let num f = Json.Num (float_of_int f) in
  let lats = ring_to_list t.lat in
  let p q = Urm_util.Stats.percentile_or_zero q lats in
  Mutex.lock t.sess_lock;
  let n_sessions = Hashtbl.length t.sessions in
  Mutex.unlock t.sess_lock;
  Mutex.lock t.qlock;
  let depth = Queue.length t.queue in
  Mutex.unlock t.qlock;
  Json.Obj
    [
      ( "router",
        Json.Obj
          [
            ("shards", num (Array.length t.slots));
            ("requests", num (Atomic.get t.requests));
            ("restarts", num (Atomic.get t.restarts_n));
            ( "latency",
              Json.Obj
                [
                  ("count", num (List.length lats));
                  ("p50", Json.Num (p 0.5));
                  ("p95", Json.Num (p 0.95));
                  ("p99", Json.Num (p 0.99));
                  ("mean", Json.Num (Urm_util.Stats.mean lats));
                ] );
            ( "queue",
              Json.Obj
                [ ("depth", num depth); ("rejected", num (Atomic.get t.rejected)) ]
            );
            ("sessions", num n_sessions);
          ] );
      ( "shards",
        Json.Arr
          (Array.to_list
             (Array.mapi
                (fun i r ->
                  Json.Obj
                    [
                      ("shard", num i);
                      ( "metrics",
                        match r with Ok m -> m | Error _ -> Json.Null );
                    ])
                shard_replies)) );
      ( "aggregate",
        Metrics.rollup
          (Array.to_list shard_replies
          |> List.filter_map (function Ok m -> Some m | Error _ -> None)) );
    ]

let exec_shutdown t =
  Array.iter (fun slot -> ignore (slot_call t slot ~op:"shutdown" [])) t.slots;
  stop t;
  Json.Obj [ ("draining", Json.Bool true) ]

(* The guard mirrors {!Urm_service.Server.reply_of}: forwarder threads
   are never respawned, so an exception escaping any branch — not just
   "query" — would permanently shrink the pool and silently drop the
   client's reply.  Every op must reduce to a typed reply. *)
let execute t (req : Protocol.request) : string =
  let id = req.Protocol.id in
  match
    match req.Protocol.op with
    | "ping" -> Protocol.ok ~id (Json.Obj [ ("pong", Json.Bool true) ])
    | "metrics" -> Protocol.ok ~id (exec_metrics t)
    | "shutdown" -> Protocol.ok ~id (exec_shutdown t)
    | "open-session" -> exec_open t req
    | "close-session" -> exec_close t req
    | "mutate" -> exec_mutate t req
    | "query" -> exec_query t req
    | _other ->
      (* sessions, topk, threshold, approx, unknown ops: whole-request
         forwarding keeps replies byte-identical to a single process. *)
      forward t (route_slot t req) req
  with
  | reply -> reply
  | exception Failure m -> Protocol.error ~id ~code:"bad_request" m
  | exception Invalid_argument m -> Protocol.error ~id ~code:"bad_request" m
  | exception Not_found -> Protocol.error ~id ~code:"not_found" "not found"
  | exception exn -> Protocol.error ~id ~code:"error" (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* Front door: admission, forwarder pool, acceptor — the same loop
   shapes as {!Urm_service.Server}, over forwarder threads instead of
   evaluation domains (router work is I/O-bound). *)

let handle t job =
  let executed =
    match job.work with
    | Single req ->
      Wire.send_reply ~id:req.Protocol.id job.jconn (execute t req);
      1
    | Batched items ->
      let replies =
        List.map
          (function
            | Ok req -> (req.Protocol.id, execute t req)
            | Error pre -> (Json.Null, pre))
          items
      in
      Wire.send_batch_reply job.jconn replies;
      List.length items
  in
  ignore (Atomic.fetch_and_add t.requests executed);
  ring_add t.lat (Urm_util.Timer.now () -. job.enqueued)

let forwarder_loop t () =
  let rec loop () =
    Mutex.lock t.qlock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.qcond t.qlock
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.qlock
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.qlock;
      handle t job;
      loop ()
    end
  in
  loop ()

let free_slots t =
  Mutex.lock t.qlock;
  let n = max 0 (t.cfg.queue_depth - Queue.length t.queue) in
  Mutex.unlock t.qlock;
  n

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
    reject work conn ~code:"unavailable" ~message:"router is draining"
  end
  else if Queue.length t.queue >= t.cfg.queue_depth then begin
    Mutex.unlock t.qlock;
    Atomic.incr t.rejected;
    reject work conn ~code:"busy" ~message:"admission queue is full";
    if conn.Wire.mode = Wire.Frames then
      Wire.send_frame conn (Frame.Credit (free_slots t))
  end
  else begin
    Queue.push { jconn = conn; work; enqueued = Urm_util.Timer.now () } t.queue;
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
      Wire.send_frame conn
        (Frame.Proto_error (Frame.error_code err, Frame.error_message err));
      false
  in
  let rec loop () = if step () then loop () in
  loop ();
  Wire.teardown conn;
  let self = Thread.id (Thread.self ()) in
  Mutex.lock t.conns_lock;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  t.readers <- List.filter (fun th -> Thread.id th <> self) t.readers;
  Mutex.unlock t.conns_lock

let acceptor_loop t () =
  let rec loop () =
    if is_stopping t then ()
    else begin
      (match Unix.select [ t.sock ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept t.sock with
        | fd, _ ->
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

(* Reap crashed workers promptly and (optionally) respawn them before
   the next request has to pay for it. *)
let health_loop t () =
  let rec loop () =
    if is_stopping t then ()
    else begin
      Array.iter
        (fun slot ->
          Mutex.lock slot.slock;
          let dead =
            match slot.proc with
            | Some p when not (Launcher.alive p) ->
              slot.proc <- None;
              (match slot.cl with
              | Some c ->
                (try Client.close c with _ -> ());
                slot.cl <- None
              | None -> ());
              true
            | None -> true
            | Some _ -> false
          in
          Mutex.unlock slot.slock;
          if dead && t.cfg.respawn && not (is_stopping t) then
            ignore (ensure_worker t slot))
        t.slots;
      Thread.delay 0.25;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)

let start (cfg : config) =
  if cfg.shards <= 0 then invalid_arg "Router.start: shards must be positive";
  if cfg.forwarders <= 0 then
    invalid_arg "Router.start: forwarders must be positive";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Spawn the fleet before binding: a failed spawn aborts cleanly. *)
  let procs = Array.make cfg.shards None in
  let failure = ref None in
  (try
     for i = 0 to cfg.shards - 1 do
       match Launcher.spawn ~spec:cfg.worker () with
       | Ok p -> procs.(i) <- Some p
       | Error m ->
         failure := Some (Printf.sprintf "worker %d: %s" i m);
         raise Exit
     done
   with Exit -> ());
  match !failure with
  | Some m ->
    Array.iter (function Some p -> Launcher.kill p | None -> ()) procs;
    Error m
  | None -> (
    match
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock
        (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
      Unix.listen sock 64;
      sock
    with
    | exception Unix.Unix_error (e, _, _) ->
      Array.iter (function Some p -> Launcher.kill p | None -> ()) procs;
      Error (Unix.error_message e)
    | sock ->
      let bound_port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> cfg.port
      in
      let slots =
        Array.init cfg.shards (fun i ->
            {
              index = i;
              proc = procs.(i);
              cl =
                (match procs.(i) with
                | Some p -> ( try Some (connect_worker p) with _ -> None)
                | None -> None);
              slock = Mutex.create ();
            })
      in
      let t =
        {
          cfg;
          sock;
          bound_port;
          slots;
          sessions = Hashtbl.create 16;
          sess_lock = Mutex.create ();
          admin_lock = Mutex.create ();
          queue = Queue.create ();
          qlock = Mutex.create ();
          qcond = Condition.create ();
          stopping = false;
          conns = [];
          readers = [];
          conns_lock = Mutex.create ();
          lat = ring_create 4096;
          requests = Atomic.make 0;
          rejected = Atomic.make 0;
          restarts_n = Atomic.make 0;
          forwarder_threads = [||];
          acceptor = None;
          health = None;
        }
      in
      t.forwarder_threads <-
        Array.init cfg.forwarders (fun _ -> Thread.create (forwarder_loop t) ());
      t.acceptor <- Some (Thread.create (acceptor_loop t) ());
      t.health <- Some (Thread.create (health_loop t) ());
      Ok t)

let wait t =
  (match t.acceptor with Some th -> Thread.join th | None -> ());
  Array.iter Thread.join t.forwarder_threads;
  (match t.health with Some th -> Thread.join th | None -> ());
  (* Drain and reap the fleet (idempotent when a wire shutdown already
     did it — the workers are then gone and the calls fail silently). *)
  Array.iter
    (fun slot ->
      Mutex.lock slot.slock;
      (match slot.cl with
      | Some c ->
        (try ignore (Client.call c ~op:"shutdown" []) with _ -> ());
        (try Client.close c with _ -> ());
        slot.cl <- None
      | None -> ());
      (match slot.proc with
      | Some p ->
        Launcher.reap p;
        slot.proc <- None
      | None -> ());
      Mutex.unlock slot.slock)
    t.slots;
  Mutex.lock t.conns_lock;
  let conns = t.conns and readers = t.readers in
  t.conns <- [];
  t.readers <- [];
  Mutex.unlock t.conns_lock;
  List.iter Wire.wake conns;
  List.iter Thread.join readers;
  List.iter Wire.teardown conns
