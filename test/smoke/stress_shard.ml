(* Multi-process stress for the shard router (dune @smoke): eight
   concurrent framed clients hammer a 3-shard router with a mix of
   queries under several algorithms, approx estimates, batch frames and
   (from one designated client) identity-preserving mutation commits —
   every reply byte-checked against a sequential oracle computed locally
   from the same pipeline parameters.  Then sequential mutate-and-verify
   rounds run the real state changes through the router against a local
   versioned-catalog oracle.

   Afterwards the per-shard cache counters must balance exactly: every
   query and approx request is forwarded whole to the one worker its
   (session, op, query, algorithm) key places it on and costs one
   answer-cache lookup there, incr and mutate cost none, and nothing is
   evicted.  More than one shard must have served lookups.  The run
   reports the router's p50/p95/p99 and the per-shard cache hit/evict
   tallies.

   Exit code 0 on success, 1 with a diagnostic on any failure. *)

module Json = Urm_util.Json
module Client = Urm_service.Client
module Router = Urm_shard.Router

let () = Urm_shard.Launcher.exec_if_worker ()

let failures = ref 0

let check label ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "stress-shard: FAIL %s\n%!" label
  end

let member name json = Option.value ~default:Json.Null (Json.member name json)
let num name json = match member name json with Json.Num f -> f | _ -> Float.nan

let seed = 7
let scale = 0.01
let h = 8
let shards = 3
let n_clients = 8
let session = ("session", Json.Str "stress")

(* Mirrors Server.answers_json. *)
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

let key_of_answer answer limit =
  Json.to_string
    (Json.Obj
       [
         ("answers", answers_json answer limit);
         ("null", Json.Num (Urm.Answer.null_prob answer));
       ])

(* The query mix: four (query, algorithm) keys that every client asks,
   each placed on one worker, so later askers hit that worker's cache. *)
let shared_script =
  [
    ("Q1", "o-sharing", 20);
    ("Q2", "basic", 20);
    ("Q1", "e-basic", 20);
    ("Q3", "q-sharing", 20);
  ]

let unique_script i = [ ("Q2", "basic", 40 + i); ("Q5", "o-sharing", 60 + i) ]
let script i = shared_script @ unique_script i @ shared_script

let algorithm_of = function
  | "basic" -> Urm.Algorithms.Basic
  | "e-basic" -> Urm.Algorithms.Ebasic
  | "q-sharing" -> Urm.Algorithms.Qsharing
  | "o-sharing" -> Urm.Algorithms.Osharing Urm.Eunit.Sef
  | other -> failwith ("stress-shard: no oracle algorithm for " ^ other)

let () =
  (* Sequential oracle over the same pipeline parameters. *)
  let p = Urm_workload.Pipeline.create ~seed ~scale () in
  let excel = Urm_workload.Targets.excel in
  let ctx = Urm_workload.Pipeline.ctx ~engine:Urm_relalg.Compile.Vectorized p excel in
  let ms = Urm_workload.Pipeline.mappings p excel ~h in
  let oracle = Hashtbl.create 32 in
  let oracle_key (qname, alg_name, limit) =
    match Hashtbl.find_opt oracle (qname, alg_name, limit) with
    | Some k -> k
    | None ->
      let _, q = Urm_workload.Queries.by_name qname in
      let report = Urm.Algorithms.run (algorithm_of alg_name) ctx q ms in
      let k = key_of_answer report.Urm.Report.answer limit in
      Hashtbl.replace oracle (qname, alg_name, limit) k;
      k
  in
  List.iter
    (fun i -> List.iter (fun case -> ignore (oracle_key case)) (script i))
    (List.init n_clients Fun.id);

  let router =
    match
      Router.start { Router.default_config with shards; queue_depth = 256 }
    with
    | Ok r -> r
    | Error m ->
      Printf.eprintf "stress-shard: cannot start the router: %s\n%!" m;
      exit 1
  in
  let port = Router.port router in
  let open_params =
    [
      session;
      ("target", Json.Str "Excel");
      ("seed", Json.Num (float_of_int seed));
      ("scale", Json.Num scale);
      ("h", Json.Num (float_of_int h));
    ]
  in
  let c0 = Client.connect ~framed:true ~port () in
  (match Client.call c0 ~op:"open-session" open_params with
  | Ok opened -> check "session created" (member "created" opened = Json.Bool true)
  | Error (code, msg) ->
    check (Printf.sprintf "open-session: %s: %s" code msg) false);

  (* One sequential approx reply is the oracle for the concurrent ones:
     without a deadline the bounded pass is deterministic. *)
  let approx_params = [ session; ("query", Json.Str "Q1") ] in
  let approx_full json =
    Json.to_string
      (Json.Obj
         [
           ("answers", member "answers" json);
           ("intervals", member "intervals" json);
           ("shapes", member "shapes" json);
         ])
  in
  let approx_oracle =
    match Client.call c0 ~op:"approx" approx_params with
    | Ok reply -> approx_full reply
    | Error (code, msg) ->
      check (Printf.sprintf "approx oracle: %s: %s" code msg) false;
      ""
  in

  (* Identity-preserving mutation: reweight mapping 0 to its current
     probability.  A real commit — epoch bump, invalidation broadcast —
     whose before/after states are byte-identical, so the concurrent
     racers' oracle keys stay exact. *)
  let noop_mutation =
    Json.Arr
      [
        Json.Obj
          [
            ("op", Json.Str "reweight");
            ("mapping", Json.Num 0.);
            ("prob", Json.Num (List.hd ms).Urm.Mapping.prob);
          ];
      ]
  in
  let n_noop_mutations = 3 in

  (* Eight clients race the mix; client 0 interleaves mutation commits. *)
  let run_client i =
    let c = Client.connect ~framed:true ~port () in
    (match Client.call c ~op:"open-session" open_params with
    | Ok _ -> ()
    | Error (code, msg) ->
      check (Printf.sprintf "client %d reopen: %s: %s" i code msg) false);
    List.iteri
      (fun step ((qname, alg_name, limit) as case) ->
        (if i = 0 && step < n_noop_mutations then
           match
             Client.call c ~op:"mutate"
               [ session; ("mutations", noop_mutation) ]
           with
           | Ok _ -> ()
           | Error (code, msg) ->
             check (Printf.sprintf "concurrent mutate %d: %s: %s" step code msg)
               false);
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
          check
            (Printf.sprintf "client %d %s/%s/%d matches the oracle" i qname
               alg_name limit)
            (String.equal (answer_key_of_json reply) (oracle_key case)))
      (script i);
    (* Approx through the router, against the sequential reference. *)
    (match Client.call c ~op:"approx" approx_params with
    | Ok reply ->
      check
        (Printf.sprintf "client %d approx matches the sequential run" i)
        (String.equal (approx_full reply) approx_oracle)
    | Error (code, msg) ->
      check (Printf.sprintf "client %d approx: %s: %s" i code msg) false);
    (* A pipelined batch: ping + a basic query in one frame. *)
    (match
       Client.call_batch c
         [
           ("ping", []);
           ( "query",
             [
               session;
               ("query", Json.Str "Q1");
               ("algorithm", Json.Str "basic");
               ("answers", Json.Num 20.);
             ] );
         ]
     with
    | Ok [ ping; q ] ->
      check
        (Printf.sprintf "client %d batch ping" i)
        (match ping with Ok j -> member "pong" j = Json.Bool true | _ -> false);
      check
        (Printf.sprintf "client %d batch query matches the oracle" i)
        (match q with
        | Ok reply ->
          String.equal (answer_key_of_json reply)
            (oracle_key ("Q1", "basic", 20))
        | Error _ -> false)
    | Ok replies ->
      check (Printf.sprintf "client %d batch arity %d" i (List.length replies)) false
    | Error msg -> check (Printf.sprintf "client %d batch: %s" i msg) false);
    Client.close c
  in
  let threads =
    List.init n_clients (fun i -> Thread.create (fun () -> run_client i) ())
  in
  List.iter Thread.join threads;

  (* Sequential mutate-and-verify rounds: real state changes through the
     router, differentially against a local versioned catalog. *)
  let module Mutation = Urm_incr.Mutation in
  let module Vcatalog = Urm_incr.Vcatalog in
  let ovcat = Vcatalog.create ~ctx ~mappings:ms () in
  let _, q1_query = Urm_workload.Queries.by_name "Q1" in
  let rel =
    List.hd
      (List.sort String.compare (Urm_relalg.Catalog.names ctx.Urm.Ctx.catalog))
  in
  let n_rounds = 4 in
  for round = 0 to n_rounds - 1 do
    let head = Vcatalog.head ovcat in
    let batch =
      if round mod 2 = 0 then begin
        let stored =
          Urm_relalg.Catalog.find head.Vcatalog.ctx.Urm.Ctx.catalog rel
        in
        let row =
          stored.Urm_relalg.Relation.rows.(round
                                           mod Urm_relalg.Relation.cardinality
                                                 stored)
        in
        [ Mutation.Delete { rel; row }; Mutation.Insert { rel; row } ]
      end
      else
        let m =
          List.nth head.Vcatalog.mappings
            (round mod List.length head.Vcatalog.mappings)
        in
        [
          Mutation.Reweight
            { mapping = m.Urm.Mapping.id; prob = m.Urm.Mapping.prob *. 0.8 };
        ]
    in
    (match Vcatalog.commit ovcat batch with
    | Ok _ -> ()
    | Error msg ->
      check (Printf.sprintf "round %d oracle commit: %s" round msg) false);
    (match
       Client.call c0 ~op:"mutate"
         [ session; ("mutations", Mutation.batch_to_json batch) ]
     with
    | Error (code, msg) ->
      check (Printf.sprintf "round %d mutate: %s: %s" round code msg) false
    | Ok r ->
      check
        (Printf.sprintf "round %d epoch advanced" round)
        (num "epoch" r = float_of_int (n_noop_mutations + round + 1)));
    let head = Vcatalog.head ovcat in
    let expected =
      let report =
        Urm.Algorithms.run Urm.Algorithms.Basic head.Vcatalog.ctx q1_query
          head.Vcatalog.mappings
      in
      key_of_answer report.Urm.Report.answer 20
    in
    match
      Client.call c0 ~op:"query"
        [ session; ("query", Json.Str "Q1"); ("algorithm", Json.Str "basic") ]
    with
    | Error (code, msg) ->
      check (Printf.sprintf "round %d query: %s: %s" round code msg) false
    | Ok reply ->
      check
        (Printf.sprintf "round %d basic answer matches the mutated oracle" round)
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
          | _ -> false))
  done;

  (* Fleet-wide accounting and the latency report.  Every query and
     approx request costs one answer-cache lookup, on the one worker it
     is placed on; incr and mutate never touch the cache. *)
  let expected_lookups =
    let per_client i =
      List.length (script i)
      + 1 (* approx *)
      + 1 (* the batched query *)
    in
    List.fold_left ( + ) 0 (List.init n_clients per_client)
    + 1 (* the sequential approx oracle *)
    + n_rounds (* one basic query per round *)
  in
  (match Client.call c0 ~op:"metrics" [] with
  | Error (code, msg) -> check (Printf.sprintf "metrics: %s: %s" code msg) false
  | Ok m ->
    let router_m = member "router" m in
    let lat = member "latency" router_m in
    Printf.printf
      "stress-shard: %d shards, %g requests; p50 %.4fs p95 %.4fs p99 %.4fs\n"
      shards (num "requests" router_m) (num "p50" lat) (num "p95" lat)
      (num "p99" lat);
    check "no worker restarts under load" (num "restarts" router_m = 0.);
    let hits = ref 0. and misses = ref 0. and evicts = ref 0. in
    let serving = ref 0 in
    (match member "shards" m with
    | Json.Arr per_shard ->
      check "one metrics entry per shard" (List.length per_shard = shards);
      List.iter
        (fun entry ->
          let cache = member "cache" (member "metrics" entry) in
          Printf.printf
            "stress-shard:   shard %g cache: hit %g miss %g evict %g\n"
            (num "shard" entry) (num "hit" cache) (num "miss" cache)
            (num "evict" cache);
          if num "hit" cache +. num "miss" cache > 0. then incr serving;
          hits := !hits +. num "hit" cache;
          misses := !misses +. num "miss" cache;
          evicts := !evicts +. num "evict" cache)
        per_shard
    | _ -> check "per-shard metrics present" false);
    check "evict = 0 under a large cache" (!evicts = 0.);
    check
      (Printf.sprintf "lookups on more than one shard (%d)" !serving)
      (!serving > 1);
    check
      (Printf.sprintf "hit + miss (%g + %g) = expected lookups (%d)" !hits
         !misses expected_lookups)
      (!hits +. !misses = float_of_int expected_lookups);
    check "the shared half of the mix hit the caches"
      (!hits >= float_of_int expected_lookups /. 4.));

  (match Client.call c0 ~op:"shutdown" [] with
  | Ok bye -> check "drain acknowledged" (member "draining" bye = Json.Bool true)
  | Error (code, msg) -> check (Printf.sprintf "shutdown: %s: %s" code msg) false);
  Client.close c0;
  Router.wait router;

  if !failures = 0 then print_endline "stress-shard: 3-shard router OK"
  else begin
    Printf.eprintf "stress-shard: %d failure(s)\n%!" !failures;
    exit 1
  end
