(* Service concurrency stress (dune @smoke, part of @runtest): eight
   clients hammer one session with a mix of cache-friendly and
   cache-defeating query requests across four worker domains, and every
   reply is checked against a sequential oracle computed locally from the same pipeline parameters
   (same seed, scale and h ⇒ byte-identical answer payloads — JSON
   floats print as %.17g, which round-trips exactly).  Afterwards the
   cache counters must balance: with a capacity far above the distinct
   variant count, evict = 0 and hit + miss equals the number of query
   requests issued.

   Exit code 0 on success, 1 with a diagnostic on any failure. *)

module Json = Urm_util.Json
module Client = Urm_service.Client
module Server = Urm_service.Server

let failures = ref 0

let check label ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "stress: FAIL %s\n%!" label
  end

let member name json = Option.value ~default:Json.Null (Json.member name json)

let num name json =
  match member name json with Json.Num f -> f | _ -> Float.nan

(* Session parameters, shared by the server session and the local oracle. *)
let seed = 7
let scale = 0.01
let h = 8
let n_clients = 8

(* Mirrors the server's answer serialisation (Server.answers_json). *)
let answers_json answer limit =
  Json.Arr
    (List.map
       (fun (tuple, p) ->
         Json.Obj
           [
             ( "tuple",
               Json.Arr
                 (List.map Urm_service.Protocol.value_to_json
                    (Array.to_list tuple)) );
             ("prob", Json.Num p);
           ])
       (Urm.Answer.top_k answer limit))

let answer_key_of_json json =
  Json.to_string
    (Json.Obj
       [ ("answers", member "answers" json); ("null", member "null_prob" json) ])

(* The request mix.  The server's worker domains and the local oracle run
   the same deterministic algorithms, so the payloads must be
   bit-identical. *)
let shared_script =
  [
    ("Q1", "o-sharing", 20);
    ("Q2", "basic", 20);
    ("Q1", "e-basic", 20);
    ("Q3", "q-sharing", 20);
  ]

let unique_script i = [ ("Q2", "basic", 40 + i); ("Q5", "o-sharing", 60 + i) ]

(* shared twice: the second pass is the cache-friendly half of the mix. *)
let script i = shared_script @ unique_script i @ shared_script

let algorithm_of = function
  | "basic" -> Urm.Algorithms.Basic
  | "e-basic" -> Urm.Algorithms.Ebasic
  | "q-sharing" -> Urm.Algorithms.Qsharing
  | "o-sharing" -> Urm.Algorithms.Osharing Urm.Eunit.Sef
  | other -> failwith ("stress: no oracle algorithm for " ^ other)

let () =
  (* The sequential oracle over the same pipeline parameters. *)
  let p = Urm_workload.Pipeline.create ~seed ~scale () in
  let excel = Urm_workload.Targets.excel in
  let ctx = Urm_workload.Pipeline.ctx p excel in
  let ms = Urm_workload.Pipeline.mappings p excel ~h in
  let oracle = Hashtbl.create 32 in
  let oracle_key (qname, alg_name, limit) =
    match Hashtbl.find_opt oracle (qname, alg_name, limit) with
    | Some k -> k
    | None ->
      let _, q = Urm_workload.Queries.by_name qname in
      let report = Urm.Algorithms.run (algorithm_of alg_name) ctx q ms in
      let answer = report.Urm.Report.answer in
      let k =
        Json.to_string
          (Json.Obj
             [
               ("answers", answers_json answer limit);
               ("null", Json.Num (Urm.Answer.null_prob answer));
             ])
      in
      Hashtbl.replace oracle (qname, alg_name, limit) k;
      k
  in
  List.iter
    (fun i -> List.iter (fun case -> ignore (oracle_key case)) (script i))
    (List.init n_clients Fun.id);

  let server =
    Server.start
      {
        Server.default_config with
        port = 0;
        workers = 4;
        queue_depth = 256;
        cache_capacity = 4096;
      }
  in
  let port = Server.port server in
  let session = ("session", Json.Str "stress") in
  let open_params =
    [
      session;
      ("target", Json.Str "Excel");
      ("seed", Json.Num (float_of_int seed));
      ("scale", Json.Num scale);
      ("h", Json.Num (float_of_int h));
    ]
  in
  let c0 = Client.connect ~port () in
  (match Client.call c0 ~op:"open-session" open_params with
  | Ok opened -> check "session created" (member "created" opened = Json.Bool true)
  | Error (code, msg) -> check (Printf.sprintf "open-session: %s: %s" code msg) false);

  (* Eight clients, each racing the full mix over the one session. *)
  let cached_seen = Array.make n_clients 0 in
  let run_client i =
    let c = Client.connect ~port () in
    (match Client.call c ~op:"open-session" open_params with
    | Ok _ -> ()
    | Error (code, msg) ->
      check (Printf.sprintf "client %d reopen: %s: %s" i code msg) false);
    List.iter
      (fun ((qname, alg_name, limit) as case) ->
        match
          Client.call c ~op:"query"
            [
              session;
              ("query", Json.Str qname);
              ("algorithm", Json.Str alg_name);
              ("answers", Json.Num (float_of_int limit));
            ]
        with
        | Error (code, msg) ->
          check
            (Printf.sprintf "client %d %s/%s/%d: %s: %s" i qname alg_name limit
               code msg)
            false
        | Ok reply ->
          if member "cached" reply = Json.Bool true then
            cached_seen.(i) <- cached_seen.(i) + 1;
          check
            (Printf.sprintf "client %d %s/%s/%d matches the sequential oracle" i
               qname alg_name limit)
            (String.equal (answer_key_of_json reply) (oracle_key case)))
      (script i);
    Client.close c
  in
  let threads =
    List.init n_clients (fun i -> Thread.create (fun () -> run_client i) ())
  in
  List.iter Thread.join threads;

  (* Mutate-then-query rounds, sequential and deterministic: each round
     commits a batch over the wire and to a local versioned catalog built
     from the same state, then compares the server's fresh answer
     byte-for-byte against a local evaluation over the oracle head (the
     commit path is shared code, so the instances are identical), and the
     maintained "incr" answer byte-for-byte too.  Data-only rounds
     must invalidate selectively, mapping rounds wholesale. *)
  let module Mutation = Urm_incr.Mutation in
  let module Vcatalog = Urm_incr.Vcatalog in
  let ovcat = Vcatalog.create ~ctx ~mappings:ms () in
  let _, q1_query = Urm_workload.Queries.by_name "Q1" in
  let rel =
    List.hd (List.sort String.compare (Urm_relalg.Catalog.names ctx.Urm.Ctx.catalog))
  in
  let n_rounds = 4 in
  let mutated_queries = ref 0 in
  for round = 0 to n_rounds - 1 do
    let head = Vcatalog.head ovcat in
    let batch =
      if round mod 2 = 0 then begin
        (* Data-only: delete a live row and insert it back, shifted to the
           end — answer-preserving, but a real non-monotone commit. *)
        let stored = Urm_relalg.Catalog.find head.Vcatalog.ctx.Urm.Ctx.catalog rel in
        let row =
          stored.Urm_relalg.Relation.rows.(round
                                           mod Urm_relalg.Relation.cardinality
                                                 stored)
        in
        [ Mutation.Delete { rel; row }; Mutation.Insert { rel; row } ]
      end
      else
        let m =
          List.nth head.Vcatalog.mappings (round mod List.length head.Vcatalog.mappings)
        in
        [
          Mutation.Reweight
            { mapping = m.Urm.Mapping.id; prob = m.Urm.Mapping.prob *. 0.8 };
        ]
    in
    (match Vcatalog.commit ovcat batch with
    | Ok _ -> ()
    | Error msg -> check (Printf.sprintf "round %d oracle commit: %s" round msg) false);
    (match
       Client.call c0 ~op:"mutate"
         [ session; ("mutations", Mutation.batch_to_json batch) ]
     with
    | Error (code, msg) ->
      check (Printf.sprintf "round %d mutate: %s: %s" round code msg) false
    | Ok r ->
      check
        (Printf.sprintf "round %d epoch advanced" round)
        (num "epoch" r = float_of_int (round + 1));
      check
        (Printf.sprintf "round %d invalidation scope" round)
        (String.equal
           (match member "invalidation" r with j -> (match member "scope" j with Json.Str s -> s | _ -> ""))
           (if round mod 2 = 0 then "selective" else "wholesale")));
    let head = Vcatalog.head ovcat in
    let expected =
      let report =
        Urm.Algorithms.run Urm.Algorithms.Basic head.Vcatalog.ctx q1_query
          head.Vcatalog.mappings
      in
      let answer = report.Urm.Report.answer in
      Json.to_string
        (Json.Obj
           [
             ("answers", answers_json answer 20);
             ("null", Json.Num (Urm.Answer.null_prob answer));
           ])
    in
    (match
       Client.call c0 ~op:"query"
         [ session; ("query", Json.Str "Q1"); ("algorithm", Json.Str "basic") ]
     with
    | Error (code, msg) ->
      check (Printf.sprintf "round %d query: %s: %s" round code msg) false
    | Ok reply ->
      incr mutated_queries;
      check
        (Printf.sprintf "round %d answer matches the post-mutation oracle" round)
        (String.equal (answer_key_of_json reply) expected);
      (match
         Client.call c0 ~op:"query"
           [ session; ("query", Json.Str "Q1"); ("algorithm", Json.Str "incr") ]
       with
      | Error (code, msg) ->
        check (Printf.sprintf "round %d incr query: %s: %s" round code msg) false
      | Ok incr_reply ->
        check
          (Printf.sprintf "round %d incr status" round)
          (match member "status" incr_reply with
          | Json.Str ("built" | "patched") -> true
          | _ -> false);
        check
          (Printf.sprintf "round %d maintained answer equals fresh basic" round)
          (String.equal (answer_key_of_json incr_reply) (answer_key_of_json reply))))
  done;

  (* Cache accounting: every query request did exactly one cache lookup
     ("incr" queries bypass the cache); nothing was evicted; the repeated
     half of the mix did hit. *)
  let total_queries = (List.length (script 0) * n_clients) + !mutated_queries in
  (match Client.call c0 ~op:"metrics" [] with
  | Error (code, msg) -> check (Printf.sprintf "metrics: %s: %s" code msg) false
  | Ok m ->
    let cache = member "cache" m in
    let hit = num "hit" cache and miss = num "miss" cache in
    let evict = num "evict" cache in
    check "evict = 0 under a large cache" (evict = 0.);
    check
      (Printf.sprintf "hit + miss (%g + %g) = query requests (%d)" hit miss
         total_queries)
      (hit +. miss = float_of_int total_queries);
    (* Every shared variant is computed at most once per concurrent racer;
       far fewer than the repeats, so hits must dominate the shared half. *)
    check "cache hits observed" (hit >= float_of_int total_queries /. 4.);
    check "requests counted" (num "requests" m >= float_of_int total_queries);
    (* Invalidation accounting: two data-only rounds invalidated
       selectively, two mapping rounds wholesale — counted both at the
       cache and per session. *)
    let inv = member "invalidate" cache in
    check "selective invalidations counted" (num "selective" inv = 2.);
    check "wholesale invalidations counted" (num "wholesale" inv = 2.);
    let per_session = member "stress" (member "invalidations" m) in
    check "per-session selective count" (num "selective" per_session = 2.);
    check "per-session wholesale count" (num "wholesale" per_session = 2.);
    check "per-session epoch tracks the rounds"
      (num "epoch" per_session = float_of_int n_rounds));
  check "some client observed a cached reply"
    (Array.exists (fun n -> n > 0) cached_seen);

  (match Client.call c0 ~op:"shutdown" [] with
  | Ok bye -> check "drain acknowledged" (member "draining" bye = Json.Bool true)
  | Error (code, msg) -> check (Printf.sprintf "shutdown: %s: %s" code msg) false);
  Client.close c0;
  Server.wait server;

  if !failures = 0 then print_endline "stress: service OK"
  else begin
    Printf.eprintf "stress: %d failure(s)\n%!" !failures;
    exit 1
  end
