(* Mutate-path smoke (dune @smoke, part of @runtest): open a session,
   query it, commit mutation batches over the wire, and check that

   - a data-only batch (delete + re-insert) commits atomically, reports
     selective cache invalidation, and leaves both the fresh and the
     maintained ("incr") answers equal to a local oracle that applied the
     identical batch to the identical versioned catalog,
   - a mapping reweight reports wholesale invalidation, forces the next
     query to recompute (cached = false), visibly changes the answer, and
     the maintained answer is patched — not rebuilt — to the same result,
   - the metrics op surfaces the per-session selective/wholesale counts
     and the cache's invalidation counters.

   Exit code 0 on success, 1 with a diagnostic on any failure. *)

module Json = Urm_util.Json
module Client = Urm_service.Client
module Server = Urm_service.Server
module Mutation = Urm_incr.Mutation
module Vcatalog = Urm_incr.Vcatalog

let failures = ref 0

let check label ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "mutate-smoke: FAIL %s\n%!" label
  end

let get_exn label = function
  | Ok v -> v
  | Error (code, msg) ->
    incr failures;
    Printf.eprintf "mutate-smoke: FAIL %s: %s: %s\n%!" label code msg;
    Json.Null

let member name json = Option.value ~default:Json.Null (Json.member name json)
let num name json = match member name json with Json.Num f -> f | _ -> Float.nan
let str name json = match member name json with Json.Str s -> s | _ -> ""

(* Session parameters, shared by the server session and the local oracle. *)
let seed = 7
let scale = 0.01
let h = 8
let limit = 500 (* large enough that no answer is truncated *)

let answers_json answer =
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

let () =
  (* The local oracle: the same pipeline parameters give the same instance
     and mapping set, and committing the same batches to a local versioned
     catalog replays the server's state epoch by epoch. *)
  let p = Urm_workload.Pipeline.create ~seed ~scale () in
  let excel = Urm_workload.Targets.excel in
  let ctx = Urm_workload.Pipeline.ctx p excel in
  let ms = Urm_workload.Pipeline.mappings p excel ~h in
  let vcat = Vcatalog.create ~ctx ~mappings:ms () in
  let _, q1 = Urm_workload.Queries.by_name "Q1" in
  let oracle_key () =
    let head = Vcatalog.head vcat in
    let report =
      Urm.Algorithms.run Urm.Algorithms.Basic head.Vcatalog.ctx q1
        head.Vcatalog.mappings
    in
    let answer = report.Urm.Report.answer in
    Json.to_string
      (Json.Obj
         [
           ("answers", answers_json answer);
           ("null", Json.Num (Urm.Answer.null_prob answer));
         ])
  in

  (* Batch 1, data only: delete the first row of some relation and insert
     it back.  The final instance differs only in row order, so the answer
     is unchanged — the point is the non-monotone (reeval) path, commit
     atomicity over the wire, and selective invalidation. *)
  let cat0 = ctx.Urm.Ctx.catalog in
  let rel = List.hd (List.sort String.compare (Urm_relalg.Catalog.names cat0)) in
  let row0 = (Urm_relalg.Catalog.find cat0 rel).Urm_relalg.Relation.rows.(0) in
  let batch1 =
    [ Mutation.Delete { rel; row = row0 }; Mutation.Insert { rel; row = row0 } ]
  in
  (* Batch 2: halve the first mapping's probability — guaranteed to move
     probability mass, so the answer visibly changes. *)
  let m0 = List.hd ms in
  let batch2 =
    [
      Mutation.Reweight
        { mapping = m0.Urm.Mapping.id; prob = m0.Urm.Mapping.prob /. 2. };
    ]
  in

  let server =
    Server.start { Server.default_config with port = 0; workers = 2 }
  in
  let port = Server.port server in
  let session = ("session", Json.Str "mut") in
  let c = Client.connect ~port () in
  let opened =
    get_exn "open-session"
      (Client.call c ~op:"open-session"
         [
           session;
           ("target", Json.Str "Excel");
           ("seed", Json.Num (float_of_int seed));
           ("scale", Json.Num scale);
           ("h", Json.Num (float_of_int h));
         ])
  in
  check "session created" (member "created" opened = Json.Bool true);
  check "session opens at epoch 0" (num "epoch" opened = 0.);

  let query alg =
    get_exn ("query " ^ alg)
      (Client.call c ~op:"query"
         [
           session;
           ("query", Json.Str "Q1");
           ("algorithm", Json.Str alg);
           ("answers", Json.Num (float_of_int limit));
         ])
  in
  let mutate label batch =
    get_exn label
      (Client.call c ~op:"mutate"
         [ session; ("mutations", Mutation.batch_to_json batch) ])
  in

  (* Epoch 0: cold, warm (cached), and the maintained answer. *)
  let basic0 = query "basic" in
  check "epoch-0 basic matches the oracle"
    (String.equal (answer_key_of_json basic0) (oracle_key ()));
  let warm = query "basic" in
  check "warm run is served from cache" (member "cached" warm = Json.Bool true);
  let incr0 = query "incr" in
  check "incr is built on first use" (String.equal (str "status" incr0) "built");
  check "incr epoch 0" (num "epoch" incr0 = 0.);
  check "built incr equals basic" (String.equal (answer_key_of_json incr0) (answer_key_of_json basic0));

  (* Batch 1 over the wire and on the oracle. *)
  let r1 = mutate "mutate (data)" batch1 in
  check "data batch bumps to epoch 1" (num "epoch" r1 = 1.);
  check "data batch touched the relation"
    (member "touched" r1 = Json.Arr [ Json.Str rel ]);
  check "data batch left mappings alone"
    (member "mappings_changed" r1 = Json.Bool false);
  check "data batch invalidates selectively"
    (String.equal (str "scope" (member "invalidation" r1)) "selective");
  (match Vcatalog.commit vcat batch1 with
  | Ok _ -> ()
  | Error msg -> check (Printf.sprintf "oracle commit 1: %s" msg) false);

  let basic1 = query "basic" in
  check "epoch-1 basic matches the oracle"
    (String.equal (answer_key_of_json basic1) (oracle_key ()));
  let incr1 = query "incr" in
  check "incr is patched, not rebuilt"
    (String.equal (str "status" incr1) "patched");
  check "incr epoch 1" (num "epoch" incr1 = 1.);
  check "patched incr equals basic after the data batch"
    (String.equal (answer_key_of_json incr1) (answer_key_of_json basic1));

  (* Batch 2: the reweight must change the answer and flush the cache. *)
  let r2 = mutate "mutate (reweight)" batch2 in
  check "reweight bumps to epoch 2" (num "epoch" r2 = 2.);
  check "reweight flags the mapping change"
    (member "mappings_changed" r2 = Json.Bool true);
  check "reweight invalidates wholesale"
    (String.equal (str "scope" (member "invalidation" r2)) "wholesale");
  check "wholesale invalidation removed the cached answers"
    (num "removed" (member "invalidation" r2) >= 1.);
  (match Vcatalog.commit vcat batch2 with
  | Ok _ -> ()
  | Error msg -> check (Printf.sprintf "oracle commit 2: %s" msg) false);

  let basic2 = query "basic" in
  check "post-reweight query recomputes" (member "cached" basic2 = Json.Bool false);
  check "epoch-2 basic matches the oracle"
    (String.equal (answer_key_of_json basic2) (oracle_key ()));
  check "the reweight changed the answer"
    (not (String.equal (answer_key_of_json basic2) (answer_key_of_json basic1)));
  let incr2 = query "incr" in
  check "incr patched across the reweight"
    (String.equal (str "status" incr2) "patched");
  check "patched incr equals basic after the reweight"
    (String.equal (answer_key_of_json incr2) (answer_key_of_json basic2));

  (* Metrics surface both invalidation views. *)
  let m = get_exn "metrics" (Client.call c ~op:"metrics" []) in
  let inv = member "invalidate" (member "cache" m) in
  check "one selective invalidation counted" (num "selective" inv = 1.);
  check "one wholesale invalidation counted" (num "wholesale" inv = 1.);
  check "invalidation removed entries" (num "removed" inv >= 1.);
  let per_session = member "mut" (member "invalidations" m) in
  check "per-session selective count" (num "selective" per_session = 1.);
  check "per-session wholesale count" (num "wholesale" per_session = 1.);
  check "per-session epoch" (num "epoch" per_session = 2.);

  (* Bad batches reject atomically: unknown relation, row never applied. *)
  (match
     Client.call c ~op:"mutate"
       [
         session;
         ( "mutations",
           Mutation.batch_to_json
             [ Mutation.Insert { rel = "NoSuchRel"; row = row0 } ] );
       ]
   with
  | Error ("conflict", _) -> ()
  | _ -> check "unknown relation is a conflict" false);
  let m' = get_exn "metrics after reject" (Client.call c ~op:"metrics" []) in
  check "rejected batch did not bump the epoch"
    (num "epoch" (member "mut" (member "invalidations" m')) = 2.);

  (match Client.call c ~op:"shutdown" [] with
  | Ok bye -> check "drain acknowledged" (member "draining" bye = Json.Bool true)
  | Error (code, msg) -> check (Printf.sprintf "shutdown: %s: %s" code msg) false);
  Client.close c;
  Server.wait server;

  if !failures = 0 then print_endline "mutate-smoke: service OK"
  else begin
    Printf.eprintf "mutate-smoke: %d failure(s)\n%!" !failures;
    exit 1
  end
