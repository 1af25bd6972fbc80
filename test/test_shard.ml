(* Differential oracle for the shard router: the same session, queries
   and mutation batches against a single-process server and against
   routers with 1, 2 and 4 worker processes must produce byte-identical
   answer payloads — the fan-outs merge per-chunk exact subtotals, answer
   sums are exact, every other operation forwards whole, and JSON floats
   render as %.17g, so any divergence is a real bug, not noise.

   The routers spawn workers by re-executing this test binary; test_main
   calls [Urm_shard.Launcher.exec_if_worker] before Alcotest ever runs. *)

module Json = Urm_util.Json
module Client = Urm_service.Client
module Server = Urm_service.Server
module Router = Urm_shard.Router
module Hash = Urm_shard.Hash
module Partial = Urm_service.Partial
module Value = Urm_relalg.Value

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

(* A worker reply's text, as the router receives it. *)
let reply_text label c ~op params =
  match Client.call_text c ~op params with
  | Ok text -> text
  | Error (code, m) -> Alcotest.failf "%s: %s: %s" label code m

let merged_answer replies =
  match Partial.merge replies with
  | Ok m -> m.Partial.answer
  | Error (code, m) -> Alcotest.failf "merge: %s: %s" code m

(* A worker's reply document around [fields]. *)
let ok_reply fields = Urm_service.Protocol.ok ~id:Json.Null (Json.Obj fields)

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
(* Grouped partials, without a server *)

(* The reference merge: one exact addition per (unit, tuple) in unit
   order — every unit's exact sums, each tuple rebuilt from its wire form
   and added to the running bucket, then the unit's θ. *)
let per_unit_merge output units =
  let acc = Urm.Answer.create output in
  let wire v =
    Urm_service.Protocol.value_of_json (Urm_service.Protocol.value_to_json v)
  in
  List.iter
    (fun a ->
      Urm.Answer.iter_exact
        (fun tuple e -> Urm.Answer.add_exact acc (Array.map wire tuple) e)
        a;
      List.iter (Urm.Answer.add_null acc) (Urm.Answer.null_exact a))
    units;
  acc

(* Random units split into random consecutive chunks: each chunk's reply
   is encoded from one answer that merges the chunk's units, and the
   replies, read back from their wire text, merge in a random order to
   the bytes of the per-unit merge.  Keys mix Int and integral Float
   values, which the wire folds into one bucket, and probabilities repeat,
   so groups, wire collisions within a unit and empty chunks all occur. *)
let qcheck_grouped_merge =
  let gen =
    QCheck.Gen.(
      let value =
        oneof
          [
            map (fun n -> Value.Int n) (0 -- 2);
            map (fun n -> Value.Float (float_of_int n)) (0 -- 2);
            return (Value.Float 0.5);
            return (Value.Str "s");
            return Value.Null;
          ]
      in
      let unit =
        pair
          (list_size (0 -- 6)
             (pair value (oneofl [ 0.1; 0.2; 0.30000000000000004 ])))
          (oneofl [ 0.; 0.05; 0.1 ])
      in
      triple (list_size (0 -- 8) unit) (list_size (0 -- 4) (0 -- 8)) int)
  in
  QCheck.Test.make ~name:"grouped partials merge like per-unit partials"
    ~count:500 (QCheck.make gen) (fun (units, cuts, seed) ->
      let units =
        List.map
          (fun (adds, theta) ->
            let a = Urm.Answer.create [ "v" ] in
            List.iter (fun (v, p) -> Urm.Answer.add a [| v |] p) adds;
            Urm.Answer.add_null a theta;
            a)
          units
      in
      let n = List.length units in
      let points = (0 :: List.sort compare (List.map (min n) cuts)) @ [ n ] in
      let rec replies = function
        | lo :: (hi :: _ as rest) ->
          let chunk = Urm.Answer.create [ "v" ] in
          List.iteri
            (fun i a -> if lo <= i && i < hi then Urm.Answer.merge_into chunk a)
            units;
          ok_reply (Partial.encode ~output:[ "v" ] chunk) :: replies rest
        | _ -> []
      in
      let rng = Random.State.make [| seed |] in
      let shuffled =
        List.map (fun r -> (Random.State.bits rng, r)) (replies points)
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      let merged = merged_answer shuffled in
      String.equal
        (Json.to_string (Urm.Answer.to_json (per_unit_merge [ "v" ] units)))
        (Json.to_string (Urm.Answer.to_json merged)))

(* A malformed worker reply is an error, never a partly merged answer:
   each broken variant of a well-formed reply must raise out of
   [Partial.merge], and so must an empty reply list.  An [ok: false]
   reply is the worker's typed error, and nothing is merged. *)
let test_merge_rejects_malformed () =
  let a = Urm.Answer.create [ "v"; "w" ] in
  Urm.Answer.add a [| Urm_relalg.Value.Int 1; Urm_relalg.Value.Str "x" |] 0.5;
  Urm.Answer.add_null a 0.25;
  let good = Partial.encode ~output:[ "v"; "w" ] a in
  let with_field name v =
    List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) good
  in
  let group p tuples = Json.Arr [ Json.Obj [ ("p", p); ("tuples", Json.Arr tuples) ] ] in
  let num x = Json.Num x in
  let rejects name replies =
    match Partial.merge replies with
    | exception Failure _ -> ()
    | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
    | Ok _ | Error _ -> Alcotest.failf "%s: not rejected" name
  in
  let expected = Json.to_string (Urm.Answer.to_json a) in
  let merges_to_a name replies =
    Alcotest.(check string) name expected
      (Json.to_string (Urm.Answer.to_json (merged_answer replies)))
  in
  merges_to_a "well-formed reply" [ ok_reply good ];
  rejects "reply without groups"
    [ ok_reply (List.filter (fun (k, _) -> k <> "groups") good) ];
  rejects "non-numeric component"
    [ ok_reply (with_field "groups" (group (Json.Arr [ Json.Str "0.5" ]) [ Json.Arr [ num 1.; Json.Str "x" ] ])) ];
  rejects "non-numeric θ component" [ ok_reply (with_field "null" (Json.Arr [ Json.Null ])) ];
  rejects "non-array tuple"
    [ ok_reply (with_field "groups" (group (Json.Arr [ num 0.5 ]) [ Json.Str "x" ])) ];
  rejects "tuple of the wrong arity"
    [ ok_reply (with_field "groups" (group (Json.Arr [ num 0.5 ]) [ Json.Arr [ num 1. ] ])) ];
  rejects "tuple of the wrong arity in a later reply"
    [
      ok_reply good;
      ok_reply
        (with_field "groups"
           (group (Json.Arr [ num 0.5 ]) [ Json.Arr [ num 1.; Json.Str "x"; Json.Null ] ]));
    ];
  rejects "output that differs between replies"
    [ ok_reply good; ok_reply (with_field "output" (Json.Arr [ Json.Str "v" ])) ];
  let text = ok_reply good in
  let cut =
    (* Just inside the first tuple, [[1 *)
    let rec find i = if String.sub text i 2 = "[[" then i + 3 else find (i + 1) in
    find 0
  in
  rejects "reply cut off mid-tuple" [ String.sub text 0 cut ];
  rejects "reply cut off mid-tuple after a good one" [ text; String.sub text 0 cut ];
  rejects "reply without a boolean ok" [ "{\"id\":null,\"result\":{}}" ];
  rejects "empty reply list" [];
  (* A group whose tuples precede its subtotal is held until "p"
     arrives, and a reply whose groups precede its output waits for it:
     the same bytes either way. *)
  let reorder_group = function
    | Json.Obj fields -> Json.Obj (List.rev fields)
    | j -> j
  in
  let reordered =
    List.rev_map
      (function
        | "groups", Json.Arr gs -> ("groups", Json.Arr (List.map reorder_group gs))
        | kv -> kv)
      good
  in
  merges_to_a "tuples before p, groups before output" [ ok_reply reordered ];
  merges_to_a "a reordered reply after a plain one"
    [
      ok_reply (with_field "groups" (Json.Arr []));
      ok_reply (List.filter (fun (k, _) -> k <> "null") reordered @ [ ("null", Json.Arr []) ]);
    ];
  (* An [ok: false] worker reply is its typed error, whatever came
     before it. *)
  let stale = Urm_service.Protocol.error ~id:Json.Null ~code:"stale_range" "raced" in
  (match Partial.merge [ ok_reply good; stale ] with
  | Error (code, m) ->
    Alcotest.(check (pair string string)) "typed error" ("stale_range", "raced") (code, m)
  | Ok _ -> Alcotest.fail "ok: false reply merged")

(* ------------------------------------------------------------------ *)
(* Random queries: router ≡ single process, any shard count *)

let sql_params text alg =
  [
    ("session", Json.Str "shard");
    ("sql", Json.Str text);
    ("algorithm", Json.Str alg);
  ]

(* Checked on every case of the property below (answer-cache hits after
   the first), under singleton (basic) and weighted (e-basic) unit lists:
   a COUNT, a SUM, a grouped aggregate, and a selection that only some
   mappings satisfy (the others contribute θ alone).  At 4 shards the
   aggregates' few e-units leave some e-basic slots empty. *)
let edge_cases =
  lazy
    (let f = Lazy.force fixture in
     let contact =
       (* A contact name under mapping 0 (basic slot 0 of h is unit 0
          alone): other mappings read the attribute from another column
          and find no such row. *)
       let reply =
         call_or_fail "contact names" f.c_oracle ~op:"query"
           (sql_params "SELECT contactName FROM PO" "basic"
           @ [ ("slot", Json.Num 0.); ("slots", Json.Num (float_of_int h)) ])
       in
       match member "groups" reply with
       | Json.Arr (g :: _) -> (
         match member "tuples" g with
         | Json.Arr (Json.Arr [ Json.Str name ] :: _) -> name
         | _ -> Alcotest.fail "contact name tuple")
       | _ -> Alcotest.fail "contact name group"
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

(* The oracle's basic answer rebuilt from its own slot replies at
   [slots] = h + 1: more slots than units, so slot 0 is empty. *)
let split_merge_key f params =
  let slots = h + 1 in
  let slot i =
    reply_text "oracle slot" f.c_oracle ~op:"query"
      (params
      @ [
          ("slot", Json.Num (float_of_int i));
          ("slots", Json.Num (float_of_int slots));
        ])
  in
  let merged = merged_answer (List.init slots slot) in
  answer_key
    (Json.Obj
       [
         ("answers", Server.answers_json merged 20);
         ("null_prob", Json.Num (Urm.Answer.null_prob merged));
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
            f.routers
          && (List.assoc "algorithm" params <> Json.Str "basic"
             || String.equal expected (split_merge_key f params)))
        (query_params qname alg :: Lazy.force edge_cases))

(* The grouped reply must stay O(answers): a Q4 basic slot reply over
   every mapping (slot 0 of 1) is at most twice the bytes of the final
   answer's JSON (the per-unit format was h = 6 times the tuples). *)
let test_partial_is_o_answers () =
  let f = Lazy.force fixture in
  let reply =
    reply_text "Q4 slot" f.c_oracle ~op:"query"
      (query_params "Q4" "basic"
      @ [ ("slot", Json.Num 0.); ("slots", Json.Num 1.) ])
  in
  let merged = merged_answer [ reply ] in
  let final = String.length (Json.to_string (Urm.Answer.to_json merged)) in
  let sent = String.length reply in
  Alcotest.(check bool) "Q4 has answers at test scale" true
    (Urm.Answer.size merged > 100);
  if sent > 2 * final then
    Alcotest.failf "slot reply %d bytes > 2 × final answer %d bytes" sent final

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

(* A fan-out slot whose expected mapping count differs from the live one
   must surface the worker's typed [stale_range] error — the router's
   refresh-and-retry keys off this code, so it must never regress into a
   generic bad_request whose message the router would have to parse. *)
let test_stale_range_is_typed () =
  let f = Lazy.force fixture in
  (* Singleton and weighted unit lists, a count above the live one, and
     one below it: a fan-out that split the old count after an
     add-mapping commit must not drop the new mapping's mass. *)
  let slot alg expect_h =
    query_params "Q1" alg
    @ [
        ("slot", Json.Num 0.);
        ("slots", Json.Num 1.);
        ("expect_h", Json.Num (float_of_int expect_h));
      ]
  in
  let probes = [ slot "basic" 999; slot "basic" (h - 1); slot "e-basic" 999 ] in
  List.iter
    (fun params ->
      List.iter
        (fun (label, c) ->
          match Client.call c ~op:"query" params with
          | Error ("stale_range", _) -> ()
          | Error (code, m) ->
            Alcotest.failf "%s: wanted stale_range, got %s: %s" label code m
          | Ok _ -> Alcotest.failf "%s: stale slot query succeeded" label)
        (("oracle", f.c_oracle)
        :: List.map
             (fun (shards, _, c) -> (Printf.sprintf "%d-shard router" shards, c))
             f.routers))
    probes

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
      (* Prune the last mapping — the mapping count drops, so the routers
         must refresh their fan-out bound. *)
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
      (* Fresh basic (fanned out) and the maintained incr answer must both
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
        (Router.restarts r);
      (* Earlier cases fanned out through every router: each fan-out
         timed its slot wait, its decode-and-merge and its render. *)
      let timers = member "timers" (member "stages" router) in
      let count name = member "count" (member name timers) in
      Alcotest.(check bool) "fan-out stages timed" true
        (match count "fan_out.wait" with Json.Num n -> n > 0. | _ -> false);
      Alcotest.(check bool) "one merge per wait, at most one render" true
        (count "fan_out.wait" = count "fan_out.merge"
        &&
        match (count "fan_out.merge", count "fan_out.render") with
        | Json.Num m, Json.Num r -> 0. < r && r <= m
        | _ -> false))
    f.routers

(* ------------------------------------------------------------------ *)
(* A fan-out whose per-unit replies would overflow a frame *)

(* Q4 at scale 0.01 has 22,500 answers under every mapping: at h = 48 one
   slot reply in the per-unit format was ~170 MB, over the 64 MiB frame
   cap, and the worker died in its writer while the router waited
   forever.  Grouped, the reply is ~1 MB and the merge byte-identical. *)
let test_wide_range_fan_out () =
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
    QCheck_alcotest.to_alcotest qcheck_grouped_merge;
    QCheck_alcotest.to_alcotest qcheck_differential;
    Alcotest.test_case "range reply is O(answers)" `Quick
      test_partial_is_o_answers;
    Alcotest.test_case "approx is byte-identical through the router" `Slow
      test_approx_differential;
    Alcotest.test_case "topk and threshold forward byte-identically" `Slow
      test_topk_threshold_differential;
    Alcotest.test_case "batch frames pipeline through the router" `Slow
      test_batch_pipelining;
    Alcotest.test_case "stale range is a typed error" `Slow
      test_stale_range_is_typed;
    Alcotest.test_case "mutation rounds stay in lockstep" `Slow
      test_mutation_rounds;
    Alcotest.test_case "metrics roll up across the fleet" `Slow
      test_metrics_rollup;
    Alcotest.test_case "h = 48 Q4 fan-out fits one frame" `Slow
      test_wide_range_fan_out;
    Alcotest.test_case "teardown reaps every worker" `Slow test_teardown;
    Alcotest.test_case "merge rejects malformed worker replies" `Quick
      test_merge_rejects_malformed;
  ]
