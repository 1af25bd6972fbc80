module Json = Urm_util.Json
module Metrics = Urm_obs.Metrics
module Protocol = Urm_service.Protocol
module Client = Urm_service.Client
module Server = Urm_service.Server
module Front = Urm_service.Front

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
   commit is an O(1) cons; {!replay} reverses it. *)
type sess = {
  sname : string;
  sfp : string;  (** fingerprint — the placement key *)
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

type t = {
  cfg : config;
  front : Front.t;
  slots : slot array;
  sessions : (string, sess) Hashtbl.t;
  sess_lock : Mutex.t;  (** guards [sessions] *)
  admin_lock : Mutex.t;
      (** serialises session-state changes (open/close/mutate) and worker
          respawns, so a replay always sees a consistent log.  Lock order:
          [admin_lock] before any [slot.slock]; never the reverse. *)
  restarts_n : int Atomic.t;
  mutable health : Thread.t option;
}

let port t = Front.port t.front
let restarts t = Atomic.get t.restarts_n

let worker_pids t =
  Array.to_list t.slots
  |> List.filter_map (fun slot ->
         Mutex.lock slot.slock;
         let p = Option.map (fun p -> p.Launcher.pid) slot.proc in
         Mutex.unlock slot.slock;
         p)

let is_stopping t = Front.stopping t.front
let stop t = Front.stop t.front

(* ------------------------------------------------------------------ *)
(* Worker calls *)

let connect_worker (p : Launcher.proc) =
  Client.connect ~framed:true ~port:p.Launcher.port ()

(* One exchange with a worker; a transport failure closes the slot's
   client so the next caller (or the health thread) triggers a respawn. *)
let slot_exchange slot exchange =
  Mutex.protect slot.slock (fun () ->
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
        match exchange c with
        | Error ("transport", m) ->
          (try Client.close c with _ -> ());
          slot.cl <- None;
          Error ("transport", m)
        | r -> r))

let slot_call slot ~op params =
  slot_exchange slot (fun c -> Client.call c ~op params)

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
  Mutex.protect slot.slock (fun () ->
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
  Mutex.protect t.admin_lock (fun () -> respawn_slot t slot)

(* The client-facing discipline: one transparent retry against a freshly
   respawned worker, then a typed [shard_unavailable].  [respawn]
   abstracts over whether the caller already holds [admin_lock]. *)
let call_retrying ~respawn t slot exchange =
  match slot_exchange slot exchange with
  | Error ("transport", m) -> (
    match respawn t slot with
    | Error m2 ->
      Error ("shard_unavailable", Printf.sprintf "shard %d: %s (%s)" slot.index m m2)
    | Ok () -> (
      match slot_exchange slot exchange with
      | Error ("transport", m2) ->
        Error ("shard_unavailable", Printf.sprintf "shard %d: %s" slot.index m2)
      | r -> r))
  | r -> r

let call_with_retry t slot ~op params =
  call_retrying ~respawn:ensure_worker t slot (fun c -> Client.call c ~op params)

(* Under [admin_lock] — respawn directly, no re-lock. *)
let call_admin t slot ~op params =
  call_retrying ~respawn:respawn_slot t slot (fun c -> Client.call c ~op params)

(* ------------------------------------------------------------------ *)
(* Routing *)

let params_of (req : Protocol.request) =
  match req.Protocol.params with Json.Obj fields -> fields | _ -> []

let find_sess t name =
  Mutex.lock t.sess_lock;
  let s = Hashtbl.find_opt t.sessions name in
  Mutex.unlock t.sess_lock;
  s

(* Placement: a rendezvous hash over one key.  A session's home shard is
   the owner of its fingerprint (the requested name for a session the
   router has not seen; shard 0 for sessionless requests); session-state
   operations go there first.  A read ([query], [topk], [threshold],
   [approx]) goes to the owner of (fingerprint, op, query or SQL text,
   algorithm): the same request always reaches the same worker, so that
   worker's answer cache serves its repeats, and distinct requests spread
   over the fleet.  Correctness never depends on the choice — every
   worker holds every session — only load and cache placement do. *)
let route_slot t req =
  let shards = Array.length t.slots in
  let str k = try Protocol.str_param req k with Failure _ -> None in
  match str "session" with
  | None -> t.slots.(0)
  | Some name ->
    let home = match find_sess t name with Some s -> s.sfp | None -> name in
    let key =
      match req.Protocol.op with
      | "query" | "topk" | "threshold" | "approx" ->
        String.concat "\000"
          (home :: req.Protocol.op
          :: List.map
               (fun k -> Option.value ~default:"" (str k))
               [ "query"; "sql"; "algorithm" ])
      | _ -> home
    in
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
  Mutex.protect t.admin_lock (fun () ->
      let home = route_slot t req in
      match call_admin t home ~op:"open-session" params with
      | Error (code, m) -> Protocol.error ~id ~code m
      | Ok result ->
        let str k = match Json.member k result with Some (Json.Str s) -> Some s | _ -> None in
        (match (str "session", str "fingerprint") with
        | Some name, Some fp ->
          Mutex.lock t.sess_lock;
          (if not (Hashtbl.mem t.sessions name) then
             Hashtbl.replace t.sessions name
               { sname = name; sfp = fp; sopen = params; slog = [] });
          Mutex.unlock t.sess_lock
        | _ -> ());
        broadcast_rest t ~home ~op:"open-session" params;
        Protocol.ok ~id result)

let exec_close t (req : Protocol.request) =
  let id = req.Protocol.id in
  let params = params_of req in
  Mutex.protect t.admin_lock (fun () ->
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

let exec_mutate t (req : Protocol.request) =
  let id = req.Protocol.id in
  let params = params_of req in
  Mutex.protect t.admin_lock (fun () ->
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
        Protocol.ok ~id result)

(* ------------------------------------------------------------------ *)
(* Router-local operations *)

let exec_metrics t =
  let shard_replies =
    Array.map (fun slot -> slot_call slot ~op:"metrics" []) t.slots
  in
  let num f = Json.Num (float_of_int f) in
  Mutex.lock t.sess_lock;
  let n_sessions = Hashtbl.length t.sessions in
  Mutex.unlock t.sess_lock;
  Json.Obj
    [
      ( "router",
        Json.Obj
          [
            ("shards", num (Array.length t.slots));
            ("requests", num (Front.requests t.front));
            ("restarts", num (Atomic.get t.restarts_n));
            ("latency", Front.latency_json t.front);
            ("queue", Front.queue_json t.front);
            ("sessions", num n_sessions);
            ("connections", num (Front.connections t.front));
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
  Array.iter (fun slot -> ignore (slot_call slot ~op:"shutdown" [])) t.slots;
  stop t;
  Json.Obj [ ("draining", Json.Bool true) ]

(* The router's request handler; {!Front.serve}'s guard turns any
   escaping exception into a typed error reply. *)
let execute t (req : Protocol.request) : string =
  let id = req.Protocol.id in
  match req.Protocol.op with
  | "ping" -> Protocol.ok ~id (Json.Obj [ ("pong", Json.Bool true) ])
  | "metrics" -> Protocol.ok ~id (exec_metrics t)
  | "shutdown" -> Protocol.ok ~id (exec_shutdown t)
  | "open-session" -> exec_open t req
  | "close-session" -> exec_close t req
  | "mutate" -> exec_mutate t req
  | _other ->
    (* query, topk, threshold, approx, sessions, unknown ops: the whole
       request goes to one worker, and its reply is the client's reply,
       byte for byte what a single process would send. *)
    forward t (route_slot t req) req

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
      (* Router work is I/O-bound: forwarder threads, not domains.  Reply
         writes are bounded like the server's, by its default timeout. *)
      Front.listen
        {
          Front.name = "router";
          host = cfg.host;
          port = cfg.port;
          executors = cfg.forwarders;
          executor = Front.Threads;
          queue_depth = cfg.queue_depth;
          send_timeout = Server.default_config.Server.send_timeout;
        }
    with
    | exception Unix.Unix_error (e, _, _) ->
      Array.iter (function Some p -> Launcher.kill p | None -> ()) procs;
      Error (Unix.error_message e)
    | front ->
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
          front;
          slots;
          sessions = Hashtbl.create 16;
          sess_lock = Mutex.create ();
          admin_lock = Mutex.create ();
          restarts_n = Atomic.make 0;
          health = None;
        }
      in
      Front.serve front (execute t);
      t.health <- Some (Thread.create (health_loop t) ());
      Ok t)

let wait t =
  Front.wait t.front;
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
    t.slots
