(* Differential oracle for the shard router: the same session, queries
   and mutation batches against a single-process server and against
   routers with 1, 2 and 4 worker processes must produce byte-identical
   answer payloads — every request is forwarded whole to one worker that
   holds the same deterministic state, so any divergence is a real bug,
   not noise.

   The routers spawn workers by re-executing this test binary; test_main
   calls [Urm_shard.Launcher.exec_if_worker] before Alcotest ever runs. *)

module Json = Urm_util.Json
module Client = Urm_service.Client
module Server = Urm_service.Server
module Router = Urm_shard.Router
module Hash = Urm_shard.Hash

let seed = 5
let scale = 0.005
let h = 6
let shard_counts = [ 1; 2; 4 ]

let member name json = Option.value ~default:Json.Null (Json.member name json)

let answer_key json =
  Json.to_string
    (Json.Obj
       [ ("answers", member "answers" json); ("null", member "null_prob" json) ])

let approx_key json =
  Json.to_string
    (Json.Obj
       [
         ("answers", member "answers" json);
         ("intervals", member "intervals" json);
         ("shapes", member "shapes" json);
       ])

let open_params =
  [
    ("session", Json.Str "shard");
    ("target", Json.Str "Excel");
    ("seed", Json.Num (float_of_int seed));
    ("scale", Json.Num scale);
    ("h", Json.Num (float_of_int h));
  ]

type fixture = {
  oracle : Server.t;
  c_oracle : Client.t;
  routers : (int * Router.t * Client.t) list;
}

let fixture =
  lazy
    (let oracle =
       Server.start
         {
           Server.default_config with
           port = 0;
           workers = 2;
           engine = Urm_relalg.Compile.Vectorized;
         }
     in
     let c_oracle = Client.connect ~port:(Server.port oracle) () in
     (match Client.call c_oracle ~op:"open-session" open_params with
     | Ok _ -> ()
     | Error (code, m) -> failwith (Printf.sprintf "oracle open: %s: %s" code m));
     let routers =
       List.map
         (fun shards ->
           match Router.start { Router.default_config with shards } with
           | Error m ->
             failwith (Printf.sprintf "router (%d shards): %s" shards m)
           | Ok r ->
             let c = Client.connect ~framed:true ~port:(Router.port r) () in
             (match Client.call c ~op:"open-session" open_params with
             | Ok _ -> ()
             | Error (code, m) ->
               failwith
                 (Printf.sprintf "router (%d shards) open: %s: %s" shards code m));
             (shards, r, c))
         shard_counts
     in
     { oracle; c_oracle; routers })

let call_or_fail label c ~op params =
  match Client.call c ~op params with
  | Ok j -> j
  | Error (code, m) -> Alcotest.failf "%s: %s: %s" label code m

let query_params qname alg =
  [
    ("session", Json.Str "shard");
    ("query", Json.Str qname);
    ("algorithm", Json.Str alg);
  ]

(* ------------------------------------------------------------------ *)
(* Placement is deterministic and total *)

let test_hash_owner () =
  List.iter
    (fun shards ->
      List.iter
        (fun key ->
          let o = Hash.owner ~shards key in
          Alcotest.(check bool) "in range" true (o >= 0 && o < shards);
          Alcotest.(check int) "deterministic" o (Hash.owner ~shards key))
        [ ""; "a"; "fingerprint:1234"; "shard" ])
    [ 1; 2; 3; 7 ];
  Alcotest.(check int) "one shard is trivial" 0 (Hash.owner ~shards:1 "x");
  Alcotest.(check bool) "rejects zero shards" true
    (match Hash.owner ~shards:0 "x" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_hash_ranges () =
  List.iter
    (fun (shards, n) ->
      let ranges = Hash.ranges ~shards ~h:n in
      Alcotest.(check int) "one range per shard" shards (Array.length ranges);
      let covered =
        Array.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ranges
      in
      Alcotest.(check int) "ranges cover every mapping" n covered;
      Array.iteri
        (fun i (lo, hi) ->
          Alcotest.(check bool) "ordered" true (lo <= hi);
          if i > 0 then
            Alcotest.(check int) "contiguous" lo (snd ranges.(i - 1)))
        ranges)
    [ (1, 6); (2, 6); (4, 6); (3, 10); (8, 3) ]

(* ------------------------------------------------------------------ *)
(* Random queries: router ≡ single process, any shard count *)

let sql_params text alg =
  [
    ("session", Json.Str "shard");
    ("sql", Json.Str text);
    ("algorithm", Json.Str alg);
  ]

(* Checked on every case of the property below (answer-cache hits after
   the first), under basic and e-basic: a COUNT, a SUM, a grouped
   aggregate, and a selection that only some mappings satisfy (the others
   contribute θ alone). *)
let edge_cases =
  lazy
    (let f = Lazy.force fixture in
     let contact =
       (* A contact name under mapping 0, from a local pipeline over the
          same parameters: other mappings read the attribute from another
          column and find no such row. *)
       let p = Urm_workload.Pipeline.create ~seed ~scale () in
       let excel = Urm_workload.Targets.excel in
       let ctx = Urm_workload.Pipeline.ctx p excel in
       let m0 = List.hd (Urm_workload.Pipeline.mappings p excel ~h) in
       let q =
         Urm.Sql.parse_exn ~name:"contact" ~target:excel
           "SELECT contactName FROM PO"
       in
       let report = Urm.Algorithms.run Urm.Algorithms.Basic ctx q [ m0 ] in
       match Urm.Answer.top_k report.Urm.Report.answer 1 with
       | [ ([| Urm_relalg.Value.Str name |], _) ] -> name
       | _ -> Alcotest.fail "contact name tuple"
     in
     let theta_only =
       Printf.sprintf "SELECT contactName FROM PO WHERE contactName = '%s'"
         contact
     in
     let reply =
       call_or_fail "θ-only query" f.c_oracle ~op:"query"
         (sql_params theta_only "basic")
     in
     (* The case must exercise what it claims: answers and θ mass both. *)
     Alcotest.(check bool) "θ-only mappings present" true
       (member "size" reply = Json.Num 1.
       && match member "null_prob" reply with Json.Num p -> p > 0. | _ -> false);
     List.concat_map
       (fun text -> [ sql_params text "basic"; sql_params text "e-basic" ])
       [
         "SELECT COUNT(*) FROM PO";
         "SELECT SUM(total) FROM PO";
         "SELECT SUM(quantity) FROM Item GROUP BY itemNum";
         theta_only;
       ])

let qcheck_differential =
  let gen =
    QCheck.Gen.(
      pair
        (oneofl [ "Q1"; "Q2"; "Q3"; "Q4"; "Q5" ])
        (oneofl [ "basic"; "e-basic"; "e-mqo"; "q-sharing"; "o-sharing" ]))
  in
  QCheck.Test.make ~name:"random query × algorithm × shard count is byte-identical"
    ~count:25 (QCheck.make gen) (fun (qname, alg) ->
      let f = Lazy.force fixture in
      List.for_all
        (fun params ->
          let expected =
            answer_key (call_or_fail "oracle query" f.c_oracle ~op:"query" params)
          in
          List.for_all
            (fun (shards, _, c) ->
              let got =
                answer_key
                  (call_or_fail
                     (Printf.sprintf "router %d query" shards)
                     c ~op:"query" params)
              in
              String.equal expected got)
            f.routers)
        (query_params qname alg :: Lazy.force edge_cases))

let test_approx_differential () =
  let f = Lazy.force fixture in
  let params =
    [
      ("session", Json.Str "shard");
      ("query", Json.Str "Q1");
      ("epsilon", Json.Num 0.05);
    ]
  in
  let expected =
    approx_key (call_or_fail "oracle approx" f.c_oracle ~op:"approx" params)
  in
  List.iter
    (fun (shards, _, c) ->
      Alcotest.(check string)
        (Printf.sprintf "approx via %d shards" shards)
        expected
        (approx_key
           (call_or_fail "router approx" c ~op:"approx" params)))
    f.routers

let test_topk_threshold_differential () =
  let f = Lazy.force fixture in
  List.iter
    (fun (op, extra) ->
      let params = (("session", Json.Str "shard") :: extra) in
      let expected =
        answer_key (call_or_fail ("oracle " ^ op) f.c_oracle ~op params)
      in
      List.iter
        (fun (shards, _, c) ->
          Alcotest.(check string)
            (Printf.sprintf "%s via %d shards" op shards)
            expected
            (answer_key (call_or_fail ("router " ^ op) c ~op params)))
        f.routers)
    [
      ("topk", [ ("query", Json.Str "Q4"); ("k", Json.Num 3.) ]);
      ("threshold", [ ("query", Json.Str "Q2"); ("tau", Json.Num 0.3) ]);
    ]

let test_batch_pipelining () =
  let f = Lazy.force fixture in
  List.iter
    (fun (shards, _, c) ->
      match
        Client.call_batch c
          [
            ("ping", []);
            ("query", query_params "Q1" "basic");
            ("no-such-op", []);
          ]
      with
      | Error m -> Alcotest.failf "batch via %d shards: %s" shards m
      | Ok [ ping; q; bad ] ->
        Alcotest.(check bool) "pong" true
          (match ping with Ok j -> member "pong" j = Json.Bool true | _ -> false);
        Alcotest.(check bool) "query answered" true (Result.is_ok q);
        Alcotest.(check bool) "unknown op is a per-item error" true
          (match bad with Error ("bad_request", _) -> true | _ -> false)
      | Ok replies ->
        Alcotest.failf "batch via %d shards: %d replies" shards
          (List.length replies))
    f.routers

(* ------------------------------------------------------------------ *)
(* Mutation rounds through the router, differential against the oracle *)

let test_mutation_rounds () =
  let f = Lazy.force fixture in
  (* A live row of the lexicographically first relation, rendered exactly
     as the wire expects, from a local pipeline over the same parameters. *)
  let p = Urm_workload.Pipeline.create ~seed ~scale () in
  let ctx = Urm_workload.Pipeline.ctx p Urm_workload.Targets.excel in
  let rel =
    List.hd
      (List.sort String.compare (Urm_relalg.Catalog.names ctx.Urm.Ctx.catalog))
  in
  let row i =
    let stored = Urm_relalg.Catalog.find ctx.Urm.Ctx.catalog rel in
    let r =
      stored.Urm_relalg.Relation.rows.(i mod Urm_relalg.Relation.cardinality stored)
    in
    Json.Arr
      (List.map Urm_service.Protocol.value_to_json (Array.to_list r))
  in
  (* Reweight downward so the mapping-set mass stays a sub-distribution
     (the commit path validates, and reweight does not renormalise). *)
  let prob0 =
    let ms = Urm_workload.Pipeline.mappings p Urm_workload.Targets.excel ~h in
    (List.hd ms).Urm.Mapping.prob *. 0.8
  in
  let batches =
    [
      (* Data-only: delete a live row, insert it back at the end. *)
      Json.Arr
        [
          Json.Obj
            [ ("op", Json.Str "delete"); ("rel", Json.Str rel); ("row", row 0) ];
          Json.Obj
            [ ("op", Json.Str "insert"); ("rel", Json.Str rel); ("row", row 0) ];
        ];
      (* Reweight mapping 0 — wholesale invalidation, same mapping count. *)
      Json.Arr
        [
          Json.Obj
            [
              ("op", Json.Str "reweight");
              ("mapping", Json.Num 0.);
              ("prob", Json.Num prob0);
            ];
        ];
      (* Prune the last mapping — the mapping count drops. *)
      Json.Arr
        [
          Json.Obj
            [
              ("op", Json.Str "prune");
              ("mapping", Json.Num (float_of_int (h - 1)));
            ];
        ];
      Json.Arr
        [
          Json.Obj
            [ ("op", Json.Str "delete"); ("rel", Json.Str rel); ("row", row 2) ];
          Json.Obj
            [ ("op", Json.Str "insert"); ("rel", Json.Str rel); ("row", row 2) ];
        ];
    ]
  in
  List.iteri
    (fun round batch ->
      let params = [ ("session", Json.Str "shard"); ("mutations", batch) ] in
      let oracle_reply =
        call_or_fail
          (Printf.sprintf "oracle mutate %d" round)
          f.c_oracle ~op:"mutate" params
      in
      List.iter
        (fun (shards, _, c) ->
          let reply =
            call_or_fail
              (Printf.sprintf "router %d mutate %d" shards round)
              c ~op:"mutate" params
          in
          Alcotest.(check string)
            (Printf.sprintf "round %d epoch agrees via %d shards" round shards)
            (Json.to_string (member "epoch" oracle_reply))
            (Json.to_string (member "epoch" reply)))
        f.routers;
      (* Fresh basic and e-basic and the maintained incr answer must all
         match the single process after every round. *)
      List.iter
        (fun alg ->
          let expected =
            answer_key
              (call_or_fail
                 (Printf.sprintf "oracle %s after round %d" alg round)
                 f.c_oracle ~op:"query" (query_params "Q1" alg))
          in
          List.iter
            (fun (shards, _, c) ->
              Alcotest.(check string)
                (Printf.sprintf "round %d %s via %d shards" round alg shards)
                expected
                (answer_key
                   (call_or_fail
                      (Printf.sprintf "router %d %s round %d" shards alg round)
                      c ~op:"query" (query_params "Q1" alg))))
            f.routers)
        [ "basic"; "e-basic"; "incr" ])
    batches

(* ------------------------------------------------------------------ *)
(* Metrics roll-up shape *)

let test_metrics_rollup () =
  let f = Lazy.force fixture in
  List.iter
    (fun (shards, r, c) ->
      let m = call_or_fail "router metrics" c ~op:"metrics" [] in
      let router = member "router" m in
      Alcotest.(check bool)
        (Printf.sprintf "%d shards reported" shards)
        true
        (member "shards" router = Json.Num (float_of_int shards));
      (match member "shards" m with
      | Json.Arr per_shard ->
        Alcotest.(check int) "one entry per shard" shards (List.length per_shard)
      | _ -> Alcotest.fail "missing per-shard metrics");
      (* The aggregate sums additive counters over the fleet and drops
         non-additive percentiles. *)
      let agg = member "aggregate" m in
      Alcotest.(check bool) "aggregate requests present" true
        (match member "requests" agg with Json.Num n -> n > 0. | _ -> false);
      Alcotest.(check bool) "percentiles dropped from aggregate" true
        (member "p50" (member "latency" agg) = Json.Null);
      Alcotest.(check int) "no restarts during the happy path" 0
        (Router.restarts r))
    f.routers

(* ------------------------------------------------------------------ *)
(* Query-keyed placement *)

(* Per-shard answer-cache lookups, (hit, miss) by shard index. *)
let cache_lookups c =
  match member "shards" (call_or_fail "router metrics" c ~op:"metrics" []) with
  | Json.Arr per_shard ->
    List.map
      (fun entry ->
        let cache = member "cache" (member "metrics" entry) in
        let n name = match member name cache with Json.Num x -> x | _ -> nan in
        (n "hit", n "miss"))
      per_shard
  | _ -> Alcotest.fail "missing per-shard metrics"

(* Shard indices whose count moved between two readings. *)
let moved pick before after =
  List.concat
    (List.mapi
       (fun i (b, a) -> if pick a <> pick b then [ i ] else [])
       (List.combine before after))

(* A read is placed by its (session, op, query, algorithm): distinct
   requests spread over the workers, and a repeat reaches the worker
   whose answer cache already holds it. *)
let test_query_placement () =
  let f = Lazy.force fixture in
  let _, _, c = List.find (fun (shards, _, _) -> shards = 4) f.routers in
  let before = cache_lookups c in
  List.iter
    (fun qname ->
      List.iter
        (fun alg ->
          ignore
            (call_or_fail "placed query" c ~op:"query" (query_params qname alg)))
        [ "basic"; "e-basic"; "e-mqo"; "q-sharing"; "o-sharing" ])
    [ "Q1"; "Q2"; "Q3"; "Q4"; "Q5" ];
  let spread = moved (fun (h, m) -> h +. m) before (cache_lookups c) in
  if List.length spread < 2 then
    Alcotest.failf "25 distinct queries reached %d worker(s)"
      (List.length spread);
  (* An answers limit no earlier case used: the first call misses. *)
  let params = query_params "Q2" "e-basic" @ [ ("answers", Json.Num 13.) ] in
  let before = cache_lookups c in
  let first = call_or_fail "first call" c ~op:"query" params in
  let mid = cache_lookups c in
  let again = call_or_fail "repeat" c ~op:"query" params in
  let after = cache_lookups c in
  Alcotest.(check bool) "first call computed" true
    (member "cached" first = Json.Bool false);
  Alcotest.(check bool) "repeat served from the cache" true
    (member "cached" again = Json.Bool true);
  let missed = moved snd before mid and hit = moved fst mid after in
  Alcotest.(check int) "one worker computed it" 1 (List.length missed);
  Alcotest.(check (list int)) "the same worker served the repeat" missed hit;
  Alcotest.(check string) "same answer" (answer_key first) (answer_key again)

(* ------------------------------------------------------------------ *)
(* A wide query through the router *)

(* Q4 at scale 0.01 has 22,500 answers under every mapping; at h = 48 the
   router forwards it whole and relays the worker's reply, which must
   match one server's. *)
let test_wide_q4 () =
  let params =
    [
      ("session", Json.Str "wide");
      ("target", Json.Str "Excel");
      ("seed", Json.Num 42.);
      ("scale", Json.Num 0.01);
      ("h", Json.Num 48.);
    ]
  in
  let query =
    [
      ("session", Json.Str "wide");
      ("query", Json.Str "Q4");
      ("algorithm", Json.Str "basic");
    ]
  in
  let oracle =
    Server.start { Server.default_config with port = 0; workers = 1 }
  in
  let c_oracle = Client.connect ~port:(Server.port oracle) () in
  let router =
    match Router.start { Router.default_config with shards = 1 } with
    | Ok r -> r
    | Error m -> Alcotest.failf "router: %s" m
  in
  let c = Client.connect ~framed:true ~port:(Router.port router) () in
  Fun.protect
    ~finally:(fun () ->
      ignore (Client.call c ~op:"shutdown" []);
      Client.close c;
      Router.wait router;
      Client.close c_oracle;
      Server.stop oracle;
      Server.wait oracle)
    (fun () ->
      ignore (call_or_fail "oracle open" c_oracle ~op:"open-session" params);
      ignore (call_or_fail "router open" c ~op:"open-session" params);
      let want = call_or_fail "oracle Q4" c_oracle ~op:"query" query in
      let got = call_or_fail "router Q4" c ~op:"query" query in
      Alcotest.(check string) "size" "22500"
        (Json.to_string (member "size" want));
      Alcotest.(check string) "byte-identical to one server" (answer_key want)
        (answer_key got);
      Alcotest.(check string) "same size" (Json.to_string (member "size" want))
        (Json.to_string (member "size" got)))

(* ------------------------------------------------------------------ *)
(* Teardown — must run last in this suite *)

let test_teardown () =
  let f = Lazy.force fixture in
  List.iter
    (fun (shards, r, c) ->
      let bye = call_or_fail "router shutdown" c ~op:"shutdown" [] in
      Alcotest.(check bool)
        (Printf.sprintf "router %d drains" shards)
        true
        (member "draining" bye = Json.Bool true);
      Client.close c;
      Router.wait r;
      Alcotest.(check (list int))
        (Printf.sprintf "router %d workers reaped" shards)
        []
        (Router.worker_pids r))
    f.routers;
  Client.close f.c_oracle;
  Server.stop f.oracle;
  Server.wait f.oracle

let suite =
  [
    Alcotest.test_case "rendezvous placement" `Quick test_hash_owner;
    Alcotest.test_case "fan-out ranges partition the mappings" `Quick
      test_hash_ranges;
    QCheck_alcotest.to_alcotest qcheck_differential;
    Alcotest.test_case "approx is byte-identical through the router" `Slow
      test_approx_differential;
    Alcotest.test_case "topk and threshold forward byte-identically" `Slow
      test_topk_threshold_differential;
    Alcotest.test_case "batch frames pipeline through the router" `Slow
      test_batch_pipelining;
    Alcotest.test_case "mutation rounds stay in lockstep" `Slow
      test_mutation_rounds;
    Alcotest.test_case "metrics roll up across the fleet" `Slow
      test_metrics_rollup;
    Alcotest.test_case "reads are placed by query" `Slow test_query_placement;
    Alcotest.test_case "h = 48 Q4 through the router" `Slow test_wide_q4;
    Alcotest.test_case "teardown reaps every worker" `Slow test_teardown;
  ]
