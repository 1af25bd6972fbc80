module Json = Urm_util.Json
module Metrics = Urm_obs.Metrics

type config = {
  host : string;
  port : int;
  workers : int;
  queue_depth : int;
  cache_capacity : int;
  send_timeout : float;
  engine : Urm_relalg.Compile.engine;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7411;
    workers = max 1 (min 4 (Domain.recommended_domain_count () - 1));
    queue_depth = 64;
    cache_capacity = 256;
    send_timeout = 10.;
    engine = Urm_relalg.Compile.Vectorized;
  }

type t = {
  cfg : config;
  front : Front.t;
  session_catalog : Session.catalog;
  cache : Cache.t;
}

let port t = Front.port t.front
let sessions t = t.session_catalog
let connection_count t = Front.connections t.front
let stop t = Front.stop t.front

(* ------------------------------------------------------------------ *)
(* Request execution *)

type failure =
  [ `Bad of string | `Not_found of string | `Conflict of string | `Error of string ]

let algorithm_of_string = function
  | "basic" -> Ok Urm.Algorithms.Basic
  | "e-basic" -> Ok Urm.Algorithms.Ebasic
  | "e-mqo" -> Ok Urm.Algorithms.Emqo
  | "q-sharing" -> Ok Urm.Algorithms.Qsharing
  | "o-sharing" -> Ok (Urm.Algorithms.Osharing Urm.Eunit.Sef)
  | "o-sharing-snf" -> Ok (Urm.Algorithms.Osharing Urm.Eunit.Snf)
  | "o-sharing-random" -> Ok (Urm.Algorithms.Osharing Urm.Eunit.Random)
  | other -> Error (`Bad ("unknown algorithm " ^ other))

let session_of t req : (Session.t, failure) result =
  match Protocol.str_param req "session" with
  | None -> Error (`Bad "missing \"session\"")
  | Some name -> (
    match Session.find t.session_catalog name with
    | Some s -> Ok s
    | None -> Error (`Not_found (Printf.sprintf "unknown session %S" name)))

let query_of (session : Session.t) req : (Urm.Query.t, failure) result =
  match (Protocol.str_param req "query", Protocol.str_param req "sql") with
  | Some _, Some _ -> Error (`Bad "give either \"query\" or \"sql\", not both")
  | None, None -> Error (`Bad "missing \"query\" or \"sql\"")
  | Some name, None -> (
    match Urm_workload.Queries.by_name name with
    | exception Not_found -> Error (`Not_found ("unknown query " ^ name))
    | target, q ->
      if String.equal target.Urm_relalg.Schema.sname session.Session.target.Urm_relalg.Schema.sname
      then Ok q
      else
        Error
          (`Bad
            (Printf.sprintf "query %s targets schema %s, session %S is over %s"
               name target.Urm_relalg.Schema.sname session.Session.name
               session.Session.target_name)))
  | None, Some text -> (
    match Urm.Sql.parse ~name:"wire" ~target:session.Session.target text with
    | Ok q -> Ok q
    | Error e -> Error (`Bad (Format.asprintf "%a" Urm.Sql.pp_error e)))

let answers_json answer limit =
  Json.Arr
    (List.map
       (fun (tuple, p) ->
         Json.Obj
           [
             ( "tuple",
               Json.Arr (List.map Protocol.value_to_json (Array.to_list tuple)) );
             ("prob", Json.Num p);
           ])
       (Urm.Answer.top_k answer limit))

let with_cached payload cached =
  match payload with
  | Json.Obj fields -> Json.Obj (fields @ [ ("cached", Json.Bool cached) ])
  | other -> other

let answers_limit req =
  Option.value ~default:20 (Protocol.int_param req "answers")

(* Cached-or-computed evaluation: [variant] makes the cache key, [compute]
   builds the payload on a miss over one pinned snapshot.  The insert is
   guarded by an epoch re-check under the cache lock, so an answer computed
   over a pre-mutation snapshot can never be published after the mutation's
   invalidation ran ([exec_mutate] commits, then invalidates). *)
let cached_eval t session q ~algorithm ~variant compute =
  let key = Cache.key ~session ~query:q ~algorithm ~variant in
  match Cache.find t.cache key with
  | Some payload -> with_cached payload true
  | None ->
    let snap = Session.snapshot session in
    let payload = compute snap in
    Cache.add t.cache key payload
      ~deps:(Urm_incr.State.query_deps snap q)
      ~guard:(fun () ->
        Session.epoch session = snap.Urm_incr.Vcatalog.epoch);
    with_cached payload false

let exec_query t req : (Json.t, failure) result =
  match session_of t req with
  | Error _ as e -> e
  | Ok session -> (
    match query_of session req with
    | Error _ as e -> e
    | Ok q -> (
      let alg_name =
        Option.value ~default:"o-sharing" (Protocol.str_param req "algorithm")
      in
      let limit = answers_limit req in
      if String.equal alg_name "incr" then
        (* The maintained answer: built on first use, patched forward by
           delta evaluation on every later one.  Always fresh at the
           catalog head, so it bypasses the LRU cache entirely. *)
        Ok
          (Session.with_incr_state session q (fun state status ->
               let answer = Urm_incr.State.answer state in
               Json.Obj
                 [
                   ("query", Json.Str (Urm.Query.to_string q));
                   ("algorithm", Json.Str "incr");
                   ("epoch", Json.Num (float_of_int (Urm_incr.State.epoch state)));
                   ( "status",
                     Json.Str
                       (match status with
                       | `Built -> "built"
                       | `Current -> "current"
                       | `Patched -> "patched"
                       | `Rebuilt -> "rebuilt") );
                   ( "shapes",
                     Json.Num (float_of_int (Urm_incr.State.shape_count state)) );
                   ("size", Json.Num (float_of_int (Urm.Answer.size answer)));
                   ("null_prob", Json.Num (Urm.Answer.null_prob answer));
                   ("answers", answers_json answer limit);
                 ]))
      else
        match algorithm_of_string alg_name with
      | Error _ as e -> e
      | Ok alg ->
        let variant = "exact:" ^ string_of_int limit in
        Ok
          (cached_eval t session q ~algorithm:alg_name ~variant (fun snap ->
               let ctx = snap.Urm_incr.Vcatalog.ctx
               and mappings = snap.Urm_incr.Vcatalog.mappings in
               let report = Urm.Algorithms.run alg ctx q mappings in
               let answer = report.Urm.Report.answer in
               Json.Obj
                 [
                   ("query", Json.Str (Urm.Query.to_string q));
                   ("algorithm", Json.Str alg_name);
                   ("size", Json.Num (float_of_int (Urm.Answer.size answer)));
                   ("null_prob", Json.Num (Urm.Answer.null_prob answer));
                   ("answers", answers_json answer limit);
                   ( "seconds",
                     Json.Num (Urm.Report.total report.Urm.Report.timings) );
                 ]))))

let exec_topk t req : (Json.t, failure) result =
  match session_of t req with
  | Error _ as e -> e
  | Ok session -> (
    match query_of session req with
    | Error _ as e -> e
    | Ok q ->
      let k = Option.value ~default:5 (Protocol.int_param req "k") in
      if k <= 0 then Error (`Bad "\"k\" must be positive")
      else
        let variant = "topk:" ^ string_of_int k in
        Ok
          (cached_eval t session q ~algorithm:"topk" ~variant (fun snap ->
               let r =
                 Urm.Topk.run ~k snap.Urm_incr.Vcatalog.ctx q
                   snap.Urm_incr.Vcatalog.mappings
               in
               let answer = r.Urm.Topk.report.Urm.Report.answer in
               Json.Obj
                 [
                   ("query", Json.Str (Urm.Query.to_string q));
                   ("k", Json.Num (float_of_int k));
                   ("answers", answers_json answer k);
                   ("stopped_early", Json.Bool r.Urm.Topk.stopped_early);
                   ( "visited_eunits",
                     Json.Num (float_of_int r.Urm.Topk.visited_eunits) );
                 ])))

let exec_threshold t req : (Json.t, failure) result =
  match session_of t req with
  | Error _ as e -> e
  | Ok session -> (
    match query_of session req with
    | Error _ as e -> e
    | Ok q -> (
      match Protocol.float_param req "tau" with
      | None -> Error (`Bad "missing \"tau\"")
      | Some tau when not (tau > 0. && tau <= 1.) ->
        Error (`Bad "\"tau\" must lie in (0, 1]")
      | Some tau ->
        let variant = Printf.sprintf "threshold:%h" tau in
        Ok
          (cached_eval t session q ~algorithm:"threshold" ~variant (fun snap ->
               let r =
                 Urm.Threshold.run ~tau snap.Urm_incr.Vcatalog.ctx q
                   snap.Urm_incr.Vcatalog.mappings
               in
               let answer = r.Urm.Threshold.report.Urm.Report.answer in
               Json.Obj
                 [
                   ("query", Json.Str (Urm.Query.to_string q));
                   ("tau", Json.Num tau);
                   ("answers", answers_json answer max_int);
                   ("stopped_early", Json.Bool r.Urm.Threshold.stopped_early);
                 ]))))

(* Anytime approximate evaluation ({!Urm.Approx}): the mode comes from
   "k" or "tau" (neither: an estimate at "epsilon", default 0.02), and an
   optional "deadline" in seconds bounds the pass, and "answers" caps the
   tuples bounded and shown.  The cache key's variant encodes every
   parameter the reply depends on: mode, deadline and answers limit. *)
let exec_approx t req : (Json.t, failure) result =
  match session_of t req with
  | Error _ as e -> e
  | Ok session -> (
    match query_of session req with
    | Error _ as e -> e
    | Ok q -> (
      let epsilon =
        Option.value ~default:0.02 (Protocol.float_param req "epsilon")
      in
      let deadline = Protocol.float_param req "deadline" in
      let limit = answers_limit req in
      let mode =
        match (Protocol.int_param req "k", Protocol.float_param req "tau") with
        | Some _, Some _ -> Error "give either \"k\" or \"tau\", not both"
        | Some k, None -> Ok (Urm.Approx.Top k)
        | None, Some tau -> Ok (Urm.Approx.Above tau)
        | None, None -> Ok (Urm.Approx.Estimate epsilon)
      in
      match mode with
      | Error m -> Error (`Bad m)
      | Ok mode -> (
        match Urm.Approx.validate ?deadline mode with
        | exception Invalid_argument m -> Error (`Bad m)
        | () ->
          let variant =
            Printf.sprintf "approx:%s:%s:%d"
              (match mode with
              | Urm.Approx.Estimate e -> Printf.sprintf "epsilon=%h" e
              | Urm.Approx.Top k -> "topk=" ^ string_of_int k
              | Urm.Approx.Above tau -> Printf.sprintf "tau=%h" tau)
              (match deadline with None -> "-" | Some d -> Printf.sprintf "%h" d)
              limit
          in
          Ok
            (cached_eval t session q ~algorithm:"approx" ~variant (fun snap ->
                 let r =
                   Urm.Approx.run ?deadline ~limit mode
                     snap.Urm_incr.Vcatalog.ctx q snap.Urm_incr.Vcatalog.mappings
                 in
                 Json.Obj
                   (("query", Json.Str (Urm.Query.to_string q))
                   :: Urm.Approx.fields r))))))

(* Commit a mutation batch, then invalidate the answer cache before
   replying: any query issued after this reply observes the new epoch, so
   serving it a pre-mutation cached answer is impossible (queries already
   in flight may legitimately answer over the snapshot they pinned).
   Data-only batches invalidate selectively — only entries whose answer
   read a touched relation; mapping-set changes invalidate the session
   wholesale, since every answer depends on the mapping probabilities. *)
let exec_mutate t req : (Json.t, failure) result =
  match session_of t req with
  | Error _ as e -> e
  | Ok session -> (
    match Protocol.param req "mutations" with
    | None -> Error (`Bad "missing \"mutations\"")
    | Some json -> (
      match Urm_incr.Mutation.batch_of_json json with
      | Error m -> Error (`Bad m)
      | Ok [] -> Error (`Bad "\"mutations\" must be non-empty")
      | Ok batch -> (
        match Session.mutate session batch with
        | Error m -> Error (`Conflict m)
        | Ok out ->
          let scope, kind =
            if out.Urm_incr.Vcatalog.mappings_changed then
              (Cache.All, `Wholesale)
            else (Cache.Relations out.Urm_incr.Vcatalog.touched, `Selective)
          in
          let removed =
            Cache.invalidate t.cache
              ~fingerprint:(Session.fingerprint session)
              scope
          in
          Session.note_invalidation session kind;
          Ok
            (Json.Obj
               [
                 ("session", Json.Str session.Session.name);
                 ( "epoch",
                   Json.Num
                     (float_of_int
                        out.Urm_incr.Vcatalog.snapshot.Urm_incr.Vcatalog.epoch) );
                 ( "applied",
                   Json.Num
                     (float_of_int (List.length out.Urm_incr.Vcatalog.resolved))
                 );
                 ( "touched",
                   Json.Arr
                     (List.map
                        (fun r -> Json.Str r)
                        out.Urm_incr.Vcatalog.touched) );
                 ( "mappings_changed",
                   Json.Bool out.Urm_incr.Vcatalog.mappings_changed );
                 ( "invalidation",
                   Json.Obj
                     [
                       ( "scope",
                         Json.Str
                           (match kind with
                           | `Wholesale -> "wholesale"
                           | `Selective -> "selective") );
                       ("removed", Json.Num (float_of_int removed));
                     ] );
                 ( "mutations",
                   Urm_incr.Mutation.batch_to_json out.Urm_incr.Vcatalog.resolved
                 );
               ]))))

let exec_open_session t req : (Json.t, failure) result =
  match Protocol.str_param req "target" with
  | None -> Error (`Bad "missing \"target\"")
  | Some target -> (
    let name = Protocol.str_param req "session" in
    let seed = Protocol.int_param req "seed" in
    let scale = Protocol.float_param req "scale" in
    let h = Protocol.int_param req "h" in
    match
      Session.open_session t.session_catalog ?name ~engine:t.cfg.engine ?seed
        ?scale ?h ~target ()
    with
    | Error msg -> Error (`Conflict msg)
    | Ok (s, created) -> (
      match Session.to_json s with
      | Json.Obj fields -> Ok (Json.Obj (fields @ [ ("created", Json.Bool created) ]))
      | other -> Ok other))

let latency_summary t =
  let l = Front.latency t.front in
  (l.Front.count, l.Front.p50, l.Front.p95, l.Front.p99)

let exec_metrics t : Json.t =
  let hits, misses, evictions = Cache.stats t.cache in
  let num f = Json.Num (float_of_int f) in
  Json.Obj
    [
      ("requests", num (Front.requests t.front));
      ("latency", Front.latency_json t.front);
      ( "cache",
        let selective, wholesale, removed = Cache.invalidation_stats t.cache in
        Json.Obj
          [
            ("hit", num hits);
            ("miss", num misses);
            ("evict", num evictions);
            ( "invalidate",
              Json.Obj
                [
                  ("selective", num selective);
                  ("wholesale", num wholesale);
                  ("removed", num removed);
                ] );
          ] );
      (* Per-session mutation-driven invalidation counts. *)
      ( "invalidations",
        Json.Obj
          (List.map
             (fun s ->
               let selective, wholesale = Session.invalidations s in
               ( s.Session.name,
                 Json.Obj
                   [
                     ("selective", num selective);
                     ("wholesale", num wholesale);
                     ("epoch", num (Session.epoch s));
                   ] ))
             (Session.list t.session_catalog)) );
      (* Plan-cache totals across open sessions (each context owns one). *)
      ( "plan_cache",
        let hit, miss, evict =
          List.fold_left
            (fun (h, m, e) s ->
              let h', m', e' = Urm.Ctx.plan_stats (Session.ctx s) in
              (h + h', m + m', e + e'))
            (0, 0, 0)
            (Session.list t.session_catalog)
        in
        Json.Obj [ ("hit", num hit); ("miss", num miss); ("evict", num evict) ] );
      (* Partitioning-memo totals across open sessions ({!Urm.Ptree.shared}). *)
      ( "partition_memo",
        let hit, miss =
          List.fold_left
            (fun (h, m) s ->
              let h', m' = Urm.Ctx.partitioning_stats (Session.ctx s) in
              (h + h', m + m'))
            (0, 0)
            (Session.list t.session_catalog)
        in
        Json.Obj [ ("hit", num hit); ("miss", num miss) ] );
      ("queue", Front.queue_json t.front);
      ("sessions", num (List.length (Session.list t.session_catalog)));
      ("connections", num (Front.connections t.front));
    ]

let execute t (req : Protocol.request) : (Json.t, failure) result =
  match req.op with
  | "ping" -> Ok (Json.Obj [ ("pong", Json.Bool true) ])
  | "open-session" -> exec_open_session t req
  | "close-session" -> (
    match Protocol.str_param req "session" with
    | None -> Error (`Bad "missing \"session\"")
    | Some name ->
      if Session.close t.session_catalog name then
        Ok (Json.Obj [ ("closed", Json.Str name) ])
      else Error (`Not_found (Printf.sprintf "unknown session %S" name)))
  | "sessions" ->
    Ok
      (Json.Obj
         [
           ( "sessions",
             Json.Arr (List.map Session.to_json (Session.list t.session_catalog)) );
         ])
  | "query" -> exec_query t req
  | "mutate" -> exec_mutate t req
  | "topk" -> exec_topk t req
  | "threshold" -> exec_threshold t req
  | "approx" -> exec_approx t req
  | "metrics" -> Ok (exec_metrics t)
  | "shutdown" ->
    stop t;
    Ok (Json.Obj [ ("draining", Json.Bool true) ])
  | other -> Error (`Bad ("unknown op " ^ other))

(* The server's request handler; {!Front.serve}'s guard maps any other
   escaping exception to a typed error. *)
let reply_of t (req : Protocol.request) =
  let id = req.Protocol.id in
  match execute t req with
  | Ok result -> Protocol.ok ~id result
  | Error (`Bad m) -> Protocol.error ~id ~code:"bad_request" m
  | Error (`Not_found m) -> Protocol.error ~id ~code:"not_found" m
  | Error (`Conflict m) -> Protocol.error ~id ~code:"conflict" m
  | Error (`Error m) -> Protocol.error ~id ~code:"error" m

let start ?(metrics = Metrics.scope Metrics.global "service") (cfg : config) =
  if cfg.workers <= 0 then invalid_arg "Server.start: workers must be positive";
  if cfg.queue_depth <= 0 then invalid_arg "Server.start: queue_depth must be positive";
  let front =
    Front.listen ~metrics
      {
        Front.name = "server";
        host = cfg.host;
        port = cfg.port;
        executors = cfg.workers;
        executor = Front.Domains;
        queue_depth = cfg.queue_depth;
        send_timeout = cfg.send_timeout;
      }
  in
  let t =
    {
      cfg;
      front;
      session_catalog = Session.create_catalog ();
      cache = Cache.create ~metrics ~capacity:cfg.cache_capacity ();
    }
  in
  Front.serve front (reply_of t);
  t

let wait t = Front.wait t.front
