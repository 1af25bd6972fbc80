(* The query-service layer: LRU, wire protocol, canonical query keys,
   mapping-set wire validation, domain-safety of the metrics registry, and
   the answer cache's dependency sets and the partitioning memo on a live
   server.  The live server is exercised end to end by test/smoke (dune
   @smoke, part of @runtest). *)

module Json = Urm_util.Json
module Lru = Urm_util.Lru
module Protocol = Urm_service.Protocol

(* ------------------------------------------------------------------ *)
(* Fnv *)

let test_fnv_stable () =
  Alcotest.(check string)
    "deterministic"
    (Urm_util.Fnv.to_hex (Urm_util.Fnv.string "abc"))
    (Urm_util.Fnv.to_hex (Urm_util.Fnv.string "abc"));
  Alcotest.(check bool)
    "different inputs differ" false
    (String.equal
       (Urm_util.Fnv.to_hex (Urm_util.Fnv.string "abc"))
       (Urm_util.Fnv.to_hex (Urm_util.Fnv.string "abd")));
  Alcotest.(check int) "16 hex digits" 16
    (String.length (Urm_util.Fnv.to_hex (Urm_util.Fnv.string "abc")))

let test_fnv_boundaries () =
  (* The separator byte keeps ["ab";"c"] and ["abc"] apart. *)
  let open Urm_util.Fnv in
  let split = add_string (add_string seed "ab") "c" in
  let whole = add_string seed "abc" in
  Alcotest.(check bool) "field boundaries matter" false (Int64.equal split whole)

(* ------------------------------------------------------------------ *)
(* Lru *)

let test_lru_eviction () =
  let l = Lru.create ~capacity:2 in
  Alcotest.(check (list string)) "no eviction" [] (Lru.add l "a" 1);
  Alcotest.(check (list string)) "no eviction" [] (Lru.add l "b" 2);
  (* Touch "a" so "b" is now least recently used. *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Lru.find l "a");
  Alcotest.(check (list string)) "evicts lru" [ "b" ] (Lru.add l "c" 3);
  Alcotest.(check (option int)) "b gone" None (Lru.find l "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find l "a");
  Alcotest.(check int) "length" 2 (Lru.length l)

let test_lru_replace_and_clear () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.add l "a" 1);
  ignore (Lru.add l "a" 9);
  Alcotest.(check (option int)) "replaced" (Some 9) (Lru.find l "a");
  Alcotest.(check int) "no duplicate entry" 1 (Lru.length l);
  Lru.clear l;
  Alcotest.(check int) "cleared" 0 (Lru.length l);
  Alcotest.(check bool) "capacity must be positive" true
    (match Lru.create ~capacity:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_protocol_request_roundtrip () =
  let line =
    Json.to_string
      (Protocol.request ~id:(Json.Num 7.) ~op:"query"
         [ ("session", Json.Str "s"); ("k", Json.Num 3.) ])
  in
  match Protocol.parse_request line with
  | Error msg -> Alcotest.fail msg
  | Ok req ->
    Alcotest.(check string) "op" "query" req.Protocol.op;
    Alcotest.(check (option string)) "param" (Some "s")
      (Protocol.str_param req "session");
    Alcotest.(check (option int)) "int param" (Some 3) (Protocol.int_param req "k");
    Alcotest.(check (option int)) "absent param" None
      (Protocol.int_param req "missing")

let test_protocol_rejects () =
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [ "nonsense"; "[1,2]"; "{}"; {|{"op": 3}|}; {|{"op": ""}|} ]

let test_protocol_reply_roundtrip () =
  (match Protocol.parse_reply (Protocol.ok ~id:(Json.Num 1.) (Json.Bool true)) with
  | Ok (Protocol.Ok (Json.Num 1., Json.Bool true)) -> ()
  | _ -> Alcotest.fail "ok reply did not round-trip");
  match Protocol.parse_reply (Protocol.error ~id:Json.Null ~code:"busy" "full") with
  | Ok (Protocol.Err (Json.Null, "busy", "full")) -> ()
  | _ -> Alcotest.fail "error reply did not round-trip"

let test_protocol_values () =
  let values =
    Urm_relalg.Value.[ Null; Int 42; Float 1.5; Str "x"; Int (-3) ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) "value round-trip" true
        (Urm_relalg.Value.equal v
           (Protocol.value_of_json (Protocol.value_to_json v))))
    values

(* ------------------------------------------------------------------ *)
(* Query canonicalisation *)

let test_canonical_ignores_spelling () =
  let target = Urm_workload.Targets.excel in
  let at = Urm.Query.at in
  let q name sels =
    Urm.Query.make ~name ~target ~aliases:[ ("PO", "PO") ] ~selections:sels ()
  in
  let a =
    q "A"
      [
        (at "PO" "priority", Urm_relalg.Value.Int 2);
        (at "PO" "invoiceTo", Urm_relalg.Value.Str "Mary");
      ]
  in
  let b =
    q "B"
      [
        (at "PO" "invoiceTo", Urm_relalg.Value.Str "Mary");
        (at "PO" "priority", Urm_relalg.Value.Int 2);
      ]
  in
  Alcotest.(check string) "order and name independent" (Urm.Query.canonical a)
    (Urm.Query.canonical b);
  Alcotest.(check string) "fingerprints agree" (Urm.Query.fingerprint a)
    (Urm.Query.fingerprint b)

let test_canonical_sql_agrees () =
  let target, q4 = Urm_workload.Queries.by_name "Q4" in
  let sql = Urm.Sql.to_sql q4 in
  let reparsed = Urm.Sql.parse_exn ~name:"reparsed" ~target sql in
  Alcotest.(check string) "named query ≡ its SQL rendering"
    (Urm.Query.canonical q4) (Urm.Query.canonical reparsed)

let test_canonical_distinguishes () =
  let _, q1 = Urm_workload.Queries.by_name "Q1" in
  let _, q5 = Urm_workload.Queries.by_name "Q5" in
  (* Q5 is Q1 plus selections and a COUNT — must not collide. *)
  Alcotest.(check bool) "distinct queries differ" false
    (String.equal (Urm.Query.canonical q1) (Urm.Query.canonical q5))

(* A shape erases selection constants and nothing else: the q-sharing
   partition and the dependency set memoised per shape depend on every
   other part of the query. *)
let test_shape () =
  let target = Urm_workload.Targets.excel in
  let at = Urm.Query.at in
  let q ?(aliases = [ ("PO", "PO"); ("Item", "Item") ]) ?(sel = "priority")
      ?(po = "PO") ?(joins = true) ?projection ?aggregate (p, n) =
    Urm.Query.make ~name:"q" ~target ~aliases
      ~selections:
        [ (at po sel, Urm_relalg.Value.Int p); (at "Item" "quantity", Urm_relalg.Value.Int n) ]
      ~joins:(if joins then [ (at po "orderNum", at "Item" "orderNum") ] else [])
      ?projection ?aggregate ()
  in
  let base = q (2, 7) in
  let same label other =
    Alcotest.(check string) label (Urm.Query.shape base) (Urm.Query.shape other)
  in
  let differs label other =
    Alcotest.(check bool) label false
      (String.equal (Urm.Query.shape base) (Urm.Query.shape other))
  in
  same "other constants share the shape" (q (5, 40));
  Alcotest.(check bool) "but not the canonical text" false
    (String.equal (Urm.Query.canonical base) (Urm.Query.canonical (q (5, 40))));
  differs "another attribute" (q ~sel:"orderNum" (2, 7));
  differs "another alias"
    (q ~aliases:[ ("P", "PO"); ("Item", "Item") ] ~po:"P" (2, 7));
  differs "no join" (q ~joins:false (2, 7));
  differs "a projection" (q ~projection:[ at "PO" "orderNum" ] (2, 7));
  differs "an aggregate" (q ~aggregate:Urm.Query.Count (2, 7))

(* ------------------------------------------------------------------ *)
(* Mapping_io wire validation *)

let mapping_set probs =
  List.mapi
    (fun i p ->
      Urm.Mapping.make ~id:i ~prob:p ~score:p
        [ ("Person.pname", "Customer.c" ^ string_of_int i) ])
    probs

let test_mapping_io_rejects_bad_probabilities () =
  let reject label text =
    match Urm.Mapping_io.of_json text with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s accepted" label
  in
  reject "sum 0.5"
    {|[{"id":0,"prob":0.5,"score":1,"pairs":[["Person.pname","Customer.cname"]]}]|};
  reject "prob 1.5"
    {|[{"id":0,"prob":1.5,"score":1,"pairs":[["Person.pname","Customer.cname"]]}]|};
  reject "negative prob"
    {|[{"id":0,"prob":-0.2,"score":1,"pairs":[["Person.pname","Customer.cname"]]},
       {"id":1,"prob":1.2,"score":1,"pairs":[["Person.pname","Customer.cname"]]}]|};
  reject "empty set" "[]";
  reject "pair arity"
    {|[{"id":0,"prob":1,"score":1,"pairs":[["Person.pname"]]}]|};
  reject "ill-typed prob"
    {|[{"id":0,"prob":"x","score":1,"pairs":[["Person.pname","Customer.cname"]]}]|}

let test_mapping_io_one_to_one_is_failure () =
  (* The mli contract says Failure, even though Mapping.make itself raises
     Invalid_argument: wire input must never surface as a programming
     error. *)
  let text =
    {|[{"id":0,"prob":1,"score":1,
       "pairs":[["Person.pname","Customer.a"],["Person.pname","Customer.b"]]}]|}
  in
  match Urm.Mapping_io.of_json text with
  | exception Failure _ -> ()
  | exception Invalid_argument _ ->
    Alcotest.fail "Invalid_argument leaked through of_json"
  | _ -> Alcotest.fail "duplicate target accepted"

let qcheck_mapping_io_roundtrip =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 6 in
      let* weights = list_size (return n) (float_range 0.05 1.0) in
      let total = List.fold_left ( +. ) 0. weights in
      return (List.map (fun w -> w /. total) weights))
  in
  QCheck.Test.make ~name:"mapping sets survive the wire" ~count:100
    (QCheck.make gen) (fun probs ->
      let ms = mapping_set probs in
      let back = Urm.Mapping_io.of_json (Urm.Mapping_io.to_json ms) in
      List.length back = List.length ms
      && List.for_all2
           (fun a b ->
             Urm.Mapping.same_correspondences a b
             && Float.abs (a.Urm.Mapping.prob -. b.Urm.Mapping.prob) < 1e-9
             && a.Urm.Mapping.id = b.Urm.Mapping.id)
           ms back)

(* ------------------------------------------------------------------ *)
(* Metrics under concurrent domains *)

let test_metrics_concurrent_domains () =
  let m = Urm_obs.Metrics.create () in
  let c = Urm_obs.Metrics.counter m "shared" in
  let tm = Urm_obs.Metrics.timer m "lat" in
  let per_domain = 25_000 in
  let body () =
    for _ = 1 to per_domain do
      Urm_obs.Metrics.incr c;
      Urm_obs.Metrics.record tm 0.001
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn body) in
  Array.iter Domain.join domains;
  Alcotest.(check int) "no lost increments" (4 * per_domain)
    (Urm_obs.Metrics.value c);
  Alcotest.(check int) "no lost recordings" (4 * per_domain)
    (Urm_obs.Metrics.calls tm);
  Alcotest.(check (float 1e-6)) "no torn accumulation"
    (0.001 *. float_of_int (4 * per_domain))
    (Urm_obs.Metrics.elapsed tm)

let test_metrics_json_sorted () =
  let m = Urm_obs.Metrics.create () in
  (* Insert in reverse order; the snapshot must come out sorted. *)
  List.iter
    (fun n -> Urm_obs.Metrics.incr (Urm_obs.Metrics.counter m n))
    [ "z"; "m"; "a" ];
  Urm_obs.Metrics.record (Urm_obs.Metrics.timer m "t2") 1.;
  Urm_obs.Metrics.record (Urm_obs.Metrics.timer m "t1") 2.;
  Alcotest.(check string) "byte-deterministic rendering"
    {|{"counters":{"a":1,"m":1,"z":1},"timers":{"t1":{"seconds":2,"count":1},"t2":{"seconds":1,"count":1}}}|}
    (Json.to_string (Urm_obs.Metrics.to_json m))

(* ------------------------------------------------------------------ *)
(* Answer-cache dependencies and the partitioning memo, on a live server *)

(* A live server over a small Excel session: [f call ctx ms] gets the
   request function (the session parameter added) and the session's
   context and mappings, rebuilt in-process from the same seed. *)
let with_excel_session name f =
  let seed = 7 and scale = 0.005 and h = 8 in
  let p = Urm_workload.Pipeline.create ~seed ~scale () in
  let excel = Urm_workload.Targets.excel in
  let ctx = Urm_workload.Pipeline.ctx p excel in
  let ms = Urm_workload.Pipeline.mappings p excel ~h in
  let server =
    Urm_service.Server.start
      { Urm_service.Server.default_config with port = 0; workers = 1 }
  in
  let c = Urm_service.Client.connect ~port:(Urm_service.Server.port server) () in
  let session = ("session", Json.Str name) in
  let call op params =
    match Urm_service.Client.call c ~op (session :: params) with
    | Ok reply -> reply
    | Error (code, m) -> Alcotest.failf "%s: %s: %s" op code m
  in
  Fun.protect
    ~finally:(fun () ->
      Urm_service.Client.close c;
      Urm_service.Server.stop server;
      Urm_service.Server.wait server)
    (fun () ->
      ignore
        (call "open-session"
           [
             ("target", Json.Str "Excel");
             ("seed", Json.Num (float_of_int seed));
             ("scale", Json.Num scale);
             ("h", Json.Num (float_of_int h));
           ]);
      f call ctx ms)

let member name json = Option.value ~default:Json.Null (Json.member name json)

(* A selection whose constant the source lacks answers θ, yet the cached
   answer still depends on the relation the selection reads: inserting a
   row that holds the constant must evict it.  Deps taken from the
   selection-probed reformulation would lose that relation (the probe
   makes the unit unsatisfiable) and serve the stale θ. *)
let test_absent_constant_invalidates () =
  let constant = "zz-absent" in
  with_excel_session "abs" (fun call ctx ms ->
      let source_attr =
        match List.find_map (fun m -> Urm.Mapping.source_of m "PO.telephone") ms with
        | Some a -> a
        | None -> Alcotest.fail "no mapping maps PO.telephone"
      in
      let rel, col = Urm_relalg.Schema.split_qualified source_attr in
      let stored = Urm_relalg.Catalog.find ctx.Urm.Ctx.catalog rel in
      let row = Array.copy stored.Urm_relalg.Relation.rows.(0) in
      let pos = Urm_relalg.Relation.col_pos stored col in
      (match row.(pos) with
      | Urm_relalg.Value.Str _ -> ()
      | _ -> Alcotest.failf "%s does not hold strings" source_attr);
      Alcotest.(check bool) "the constant is absent" false
        (Urm_relalg.Catalog.has_value ctx.Urm.Ctx.catalog rel col
           (Urm_relalg.Value.Str constant));
      row.(pos) <- Urm_relalg.Value.Str constant;
      let query () =
        let reply =
          call "query"
            [
              ( "sql",
                Json.Str
                  (Printf.sprintf
                     "SELECT PO.telephone FROM PO WHERE PO.telephone = '%s'"
                     constant) );
            ]
        in
        ( member "cached" reply,
          Json.to_string
            (Json.Obj
               [ ("answers", member "answers" reply); ("null", member "null_prob" reply) ])
        )
      in
      let cached0, theta = query () in
      Alcotest.(check bool) "first read is computed" true (cached0 = Json.Bool false);
      Alcotest.(check string) "an absent constant answers θ"
        {|{"answers":[],"null":1}|} theta;
      Alcotest.(check bool) "second read is cached" true
        (fst (query ()) = Json.Bool true);
      let mutated =
        call "mutate"
          [
            ( "mutations",
              Urm_incr.Mutation.batch_to_json
                [ Urm_incr.Mutation.Insert { rel; row } ] );
          ]
      in
      Alcotest.(check string) "a data-only batch invalidates selectively" "selective"
        (match member "scope" (member "invalidation" mutated) with
        | Json.Str s -> s
        | _ -> "");
      let cached1, after = query () in
      Alcotest.(check bool) "the read after the insert is recomputed" true
        (cached1 = Json.Bool false);
      Alcotest.(check bool) "and sees the inserted constant" false
        (String.equal theta after))

(* One ad-hoc shape over PO ⋈ Item; reads differ only in constants. *)
let shape_sql (quantity, priority) =
  Printf.sprintf
    "SELECT PO.orderNum, PO.priority, Item.itemNum, Item.quantity FROM PO, Item \
     WHERE PO.orderNum = Item.orderNum AND Item.quantity = %d AND PO.priority = %d"
    quantity priority

(* [(cached, bytes)] of a read: whether it was served from the answer
   cache, and its size, answers and θ. *)
let read call ?(algorithm = "o-sharing") constants =
  let reply =
    call "query"
      [
        ("sql", Json.Str (shape_sql constants));
        ("algorithm", Json.Str algorithm);
        ("answers", Json.Num 1000.);
      ]
  in
  ( member "cached" reply,
    Json.to_string
      (Json.Obj
         [
           ("size", member "size" reply);
           ("answers", member "answers" reply);
           ("null", member "null_prob" reply);
         ]) )

(* A mapping mutation builds a new mapping list, so the memoised
   partition of a shape must not serve the next read of that shape: each
   read after a reweight or an added mapping renders the bytes of a fresh
   basic evaluation of the same snapshot. *)
let test_memo_follows_mapping_edits () =
  with_excel_session "memo" (fun call _ ms ->
      let m0 = List.hd ms in
      let check label constants =
        let cached, got = read call constants in
        let basic_cached, want = read call ~algorithm:"basic" constants in
        Alcotest.(check bool) (label ^ ": computed") true (cached = Json.Bool false);
        Alcotest.(check bool)
          (label ^ ": basic computed") true
          (basic_cached = Json.Bool false);
        Alcotest.(check string) (label ^ ": basic's bytes") want got
      in
      let mutate m =
        ignore
          (call "mutate" [ ("mutations", Urm_incr.Mutation.batch_to_json [ m ]) ])
      in
      check "first read" (1, 1);
      mutate (Urm_incr.Mutation.Reweight { mapping = m0.Urm.Mapping.id; prob = 0.01 });
      check "after a reweight" (2, 3);
      mutate
        (Urm_incr.Mutation.Add_mapping
           { id = None; pairs = m0.Urm.Mapping.pairs; prob = 0.3; score = 0.3 });
      check "after an added mapping" (3, 5))

(* The memo's counts reach the metrics reply: a second read of a shape
   under other constants counts one hit (basic partitions nothing, so its
   only lookup is the answer's dependency set). *)
let test_memo_metrics () =
  with_excel_session "memo-metrics" (fun call _ _ ->
      let counts () =
        let memo = member "partition_memo" (call "metrics" []) in
        (Json.to_float (member "hit" memo), Json.to_float (member "miss" memo))
      in
      let h0, m0 = counts () in
      ignore (read call ~algorithm:"basic" (1, 1));
      let h1, m1 = counts () in
      ignore (read call ~algorithm:"basic" (2, 3));
      let h2, m2 = counts () in
      Alcotest.(check (pair (float 0.) (float 0.))) "the first read misses" (0., 1.)
        (h1 -. h0, m1 -. m0);
      Alcotest.(check (pair (float 0.) (float 0.))) "the second read hits" (1., 0.)
        (h2 -. h1, m2 -. m1))

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "fnv is stable" `Quick test_fnv_stable;
    Alcotest.test_case "fnv separates field boundaries" `Quick test_fnv_boundaries;
    Alcotest.test_case "lru evicts least recently used" `Quick test_lru_eviction;
    Alcotest.test_case "lru replaces and clears" `Quick test_lru_replace_and_clear;
    Alcotest.test_case "protocol request round-trip" `Quick
      test_protocol_request_roundtrip;
    Alcotest.test_case "protocol rejects malformed requests" `Quick
      test_protocol_rejects;
    Alcotest.test_case "protocol reply round-trip" `Quick
      test_protocol_reply_roundtrip;
    Alcotest.test_case "protocol value mapping" `Quick test_protocol_values;
    Alcotest.test_case "canonical ignores name and order" `Quick
      test_canonical_ignores_spelling;
    Alcotest.test_case "canonical agrees with SQL round-trip" `Quick
      test_canonical_sql_agrees;
    Alcotest.test_case "canonical distinguishes queries" `Quick
      test_canonical_distinguishes;
    Alcotest.test_case "a shape erases only the constants" `Quick test_shape;
    Alcotest.test_case "mapping_io rejects bad probabilities" `Quick
      test_mapping_io_rejects_bad_probabilities;
    Alcotest.test_case "mapping_io one-to-one violations are Failure" `Quick
      test_mapping_io_one_to_one_is_failure;
    QCheck_alcotest.to_alcotest qcheck_mapping_io_roundtrip;
    Alcotest.test_case "metrics survive concurrent domains" `Quick
      test_metrics_concurrent_domains;
    Alcotest.test_case "metrics json has sorted keys" `Quick
      test_metrics_json_sorted;
    Alcotest.test_case "an insert of an absent selection constant evicts θ"
      `Quick test_absent_constant_invalidates;
    Alcotest.test_case "a mapping edit misses the partition memo" `Quick
      test_memo_follows_mapping_edits;
    Alcotest.test_case "a second same-shape read counts one memo hit" `Quick
      test_memo_metrics;
  ]
