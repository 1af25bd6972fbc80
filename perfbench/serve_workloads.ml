(* The service workloads: serve-rw (one server, one framed client) and
   shard-q4 (a router over two worker processes, one framed client).  The
   server and the router run in processes of their own ({!Child}); this
   process is the client and the checker.

   serve-rw checks every reply against a local versioned-catalog replica
   that commits the same mutation batches; shard-q4 checks every router
   reply against a single in-process server given the same requests. *)

open Common
module Server = Urm_service.Server
module Client = Urm_service.Client
module Protocol = Urm_service.Protocol
module Frame = Urm_service.Frame
module Session = Urm_service.Session
module Mutation = Urm_incr.Mutation
module Vcatalog = Urm_incr.Vcatalog
module Value = Urm_relalg.Value

let member k j = Option.value ~default:Json.Null (Json.member k j)
let str s = Json.Str s
let int n = Json.Num (float_of_int n)

(* The self-test's corruption: move the reply's first probability (or θ's
   when it has no answers). *)
let perturbed reply =
  let bump = function Json.Num p -> Json.Num (p +. 1e-6) | v -> v in
  let bump_prob = function
    | Json.Obj fs -> Json.Obj (List.map (fun (k, v) -> (k, if k = "prob" then bump v else v)) fs)
    | v -> v
  in
  match reply with
  | Json.Obj fields when !Lib_workloads.perturb_flag ->
    let has_answers = match member "answers" reply with Json.Arr (_ :: _) -> true | _ -> false in
    Json.Obj
      (List.map
         (fun (k, v) ->
           match (k, v) with
           | "answers", Json.Arr (first :: rest) -> (k, Json.Arr (bump_prob first :: rest))
           | "null_prob", _ when not has_answers -> (k, bump v)
           | _ -> (k, v))
         fields)
  | v -> v

(* The schedule-independent part of a query or top-k reply. *)
let answer_key reply =
  Json.to_string
    (Json.Obj
       [
         ("answers", member "answers" reply);
         ("size", member "size" reply);
         ("null_prob", member "null_prob" reply);
       ])

(* ------------------------------------------------------------------ *)
(* One request: Client.call's steps, each a span when tracing.  [after]
   sees the rtt span, the request document and the raw reply, and
   attaches probe-measured children to the rtt span. *)

let req_id = ref 0

let call ?(after = fun _ _ _ -> ()) c ~op params =
  incr req_id;
  let doc =
    Trace.span "json.encode" (fun () ->
        Json.to_string (Protocol.request ~id:(int !req_id) ~op params))
  in
  let reply, rtt = Trace.span_id "client.rtt" (fun () -> Client.roundtrip c doc) in
  match reply with
  | Error e -> Error ("transport", e)
  | Ok line -> (
    after rtt doc line;
    match Trace.span "json.parse" (fun () -> Protocol.parse_reply line) with
    | Ok (Protocol.Ok (_, result)) -> Ok result
    | Ok (Protocol.Err (_, code, m)) -> Error (code, m)
    | Error m -> Error ("proto", m))

let call_exn c ~op params =
  match call c ~op params with
  | Ok r -> r
  | Error (code, m) -> failwith (Printf.sprintf "%s failed: %s: %s" op code m)

(* Frame codec work along one exchange, both directions, both ends. *)
let frame_probe rtt doc line =
  let bytes, d =
    Trace.probe (fun () ->
        let req = Frame.encode (Frame.Request doc) and rep = Frame.encode (Frame.Reply line) in
        ignore (Frame.decode req);
        ignore (Frame.decode rep);
        String.length req + String.length rep)
  in
  ignore (Trace.attach ~parent:rtt "frame.codec" d);
  Trace.count "frame.bytes" (float_of_int bytes)

let framed_client port = Client.connect ~framed:true ~port ()

let stop_server s =
  Server.stop s;
  Server.wait s

(* A program under test in its child process, with its framed client. *)
let start_child kind open_params =
  let child = Child.spawn kind in
  let c = framed_client child.Child.port in
  ignore (call_exn c ~op:"open-session" open_params);
  (child, c)

let stop_child (child, c) =
  Client.close c;
  Child.stop child

(* CPU time of the program's processes. *)
let child_cpu child () = List.fold_left (fun a pid -> a +. proc_cpu_s pid) 0. (Child.pids child)

(* The program's peak resident memory during the timed ops (VmHWM,
   summed over its processes): the peaks restart here from the current
   resident sets, which hold the session but not the transient peak of
   building it, and are read after [n] timed rounds, or at the end of a
   run with fewer.  The peak keeps creeping up as the heaps grow in
   steps, so a reading at a fixed op count does not depend on how many
   rounds a run gets through.  Returns the [after_round] hook for
   {!drive} and the reading. *)
let rss_after_rounds n child =
  let rss () = List.fold_left (fun a pid -> a +. vm_hwm_mb (string_of_int pid)) 0. (Child.pids child) in
  if not (List.for_all reset_peak (Child.pids child)) then
    note "perfbench: could not restart the peak RSS; peak_rss_mb includes the set-up";
  let at_n = ref None in
  ((fun k -> if k = n then at_n := Some (rss ())), fun () -> match !at_n with Some v -> v | None -> rss ())

(* Fresh-key copies of existing rows: the key column (first) gets a value
   no generated row has, the other columns repeat a seeded row. *)
let fresh_rows rng rel ~n ~serial =
  let rows = rel.Urm_relalg.Relation.rows in
  List.init n (fun i ->
      let row = Array.copy rows.(Random.State.int rng (Array.length rows)) in
      let k = !serial + i in
      row.(0) <-
        (match row.(0) with
        | Value.Int _ -> Value.Int (900_000_000 + k)
        | Value.Float _ -> Value.Float (900_000_000. +. float_of_int k)
        | Value.Str _ | Value.Null -> Value.Str (Printf.sprintf "pb-%d" k));
      row)
  |> fun rows ->
  serial := !serial + n;
  rows

(* Set-ups per run on the service workloads; [setup_s] is their median. *)
let setups = 9

(* Runs [repeats] complete set-ups one after another, tearing each down
   before the next starts, and keeps the last; the set-up time is their
   median. *)
let repeated_setup repeats once teardown =
  let rec go i times =
    let t0 = now () in
    let v = once () in
    let times = (now () -. t0) :: times in
    if i = repeats then (v, median times)
    else begin
      teardown v;
      Gc.compact ();
      go (i + 1) times
    end
  in
  go 1 []

(* ------------------------------------------------------------------ *)
(* serve-rw *)

let rw_scale = 0.03
let rw_h = 100
let session = ("session", str "rw")

let open_params =
  [
    session;
    ("target", str "Excel");
    ("seed", int 42);
    ("scale", Json.Num rw_scale);
    ("h", int rw_h);
  ]

(* An ad-hoc selection over PO ⋈ Item.  About 5000 distinct constant
   pairs, so with a 256-entry answer cache an ad-hoc read almost never
   hits: reads split into misses (ad-hoc) and hits (repeated named
   queries) far from 50/50. *)
let adhoc_sql rng =
  Printf.sprintf
    "SELECT PO.orderNum, PO.telephone, Item.itemNum, Item.quantity FROM PO, Item \
     WHERE PO.orderNum = Item.orderNum AND Item.quantity = %d AND PO.priority = %d"
    (1 + Random.State.int rng 50)
    (1 + Random.State.int rng 100)

let serve_rw ~seed ~seconds ~trace =
  let open_s = ref [] in
  let (server, c), setup_s =
    repeated_setup setups
      (fun () ->
        let child = Child.spawn "server" in
        let c = framed_client child.Child.port in
        let t0 = now () in
        ignore (call_exn c ~op:"open-session" open_params);
        open_s := (now () -. t0) :: !open_s;
        (child, c))
      stop_child
  in
  Fun.protect ~finally:(fun () -> stop_child (server, c)) @@ fun () ->
  Child.compact server;
  (* The replica: the session's own build steps (Session.build). *)
  (* Its instance generation and mapping enumeration are timed as the
     set-up layers of the session build. *)
  let t0 = now () in
  let pipeline = Urm_workload.Pipeline.create ~seed:42 ~scale:rw_scale () in
  let generate_s = now () -. t0 in
  let excel = Urm_workload.Targets.excel in
  let ctx = Urm_workload.Pipeline.ctx pipeline excel in
  Urm_relalg.Catalog.build_indexes ctx.Urm.Ctx.catalog;
  let t1 = now () in
  let mappings = Urm_workload.Pipeline.mappings pipeline excel ~h:rw_h in
  let mappings_s = now () -. t1 in
  let replica = Vcatalog.create ~eager_indexes:true ~ctx ~mappings () in
  let named = List.map (fun n -> (n, snd (Urm_workload.Queries.by_name n))) [ "Q1"; "Q2"; "Q5" ] in
  let sql text = Urm.Sql.parse_exn ~name:"wire" ~target:excel text in
  (* Mutations go to the smallest relation every read depends on. *)
  let target_rel =
    let head = Vcatalog.head replica in
    let deps q = Urm_incr.State.query_deps head q in
    let probe = sql (adhoc_sql (Random.State.make [| 1 |])) in
    let common =
      List.fold_left
        (fun acc (_, q) -> List.filter (fun r -> List.mem r (deps q)) acc)
        (deps probe) named
    in
    let size r = Array.length (Urm_relalg.Catalog.find head.Vcatalog.ctx.Urm.Ctx.catalog r).Urm_relalg.Relation.rows in
    match List.sort (fun a b -> compare (size a) (size b)) common with
    | r :: _ -> r
    | [] -> List.hd (deps (snd (List.hd named)))
  in
  let serial = ref 0 in
  let commit_ms = ref [] and catch_up_ms = ref [] and patched = ref 0 and catch_ups = ref 0 in
  let states = Hashtbl.create 4 in
  let head () = Vcatalog.head replica in
  let expected_exact q =
    let h = head () in
    let a = (Urm.Algorithms.run (Urm.Algorithms.Osharing Urm.Eunit.Sef) h.Vcatalog.ctx q h.Vcatalog.mappings).Urm.Report.answer in
    Json.to_string
      (Json.Obj
         [
           ("answers", Server.answers_json a 20);
           ("size", int (Urm.Answer.size a));
           ("null_prob", Json.Num (Urm.Answer.null_prob a));
         ])
  in
  let check_exact q reply () =
    if String.equal (answer_key (perturbed reply)) (expected_exact q) then None
    else Some "reply differs from the replica's answer"
  in
  let bag reply =
    match member "answers" reply with
    | Json.Arr items ->
      List.sort compare
        (List.map (fun it -> (Json.to_string (member "tuple" it), Json.to_float (member "prob" it))) items)
    | _ -> []
  in
  (* Maintained answers carry float residue: compare within eps against
     a fresh evaluation, and keep a replica state caught up alongside. *)
  let check_incr name q reply () =
    let h = head () in
    let fresh = (Urm.Algorithms.run Urm.Algorithms.Basic h.Vcatalog.ctx q h.Vcatalog.mappings).Urm.Report.answer in
    let want =
      Json.Obj [ ("answers", Server.answers_json fresh 500); ("null_prob", Json.Num (Urm.Answer.null_prob fresh)) ]
    in
    (match Hashtbl.find_opt states name with
    | None -> Hashtbl.replace states name (Urm_incr.State.build h q)
    | Some s ->
      let t0 = now () in
      let s', status = Urm_incr.State.catch_up replica s in
      catch_up_ms := ms (now () -. t0) :: !catch_up_ms;
      incr catch_ups;
      if status = `Patched then incr patched;
      Hashtbl.replace states name s');
    let reply = perturbed reply in
    let a = bag reply and b = bag want in
    let close x y = Float.abs (x -. y) <= Urm.Prob.eps in
    if
      List.length a = List.length b
      && List.for_all2 (fun (ta, pa) (tb, pb) -> String.equal ta tb && close pa pb) a b
      && close (Json.to_float (member "null_prob" reply)) (Json.to_float (member "null_prob" want))
    then None
    else Some ("incr " ^ name ^ " differs from a fresh evaluation beyond eps")
  in
  let check_topk q reply () =
    let h = head () in
    let r = Urm.Topk.run ~k:5 h.Vcatalog.ctx q h.Vcatalog.mappings in
    let want = Json.to_string (Server.answers_json r.Urm.Topk.report.Urm.Report.answer 5) in
    if String.equal (Json.to_string (member "answers" (perturbed reply))) want then None
    else Some "top-5 differs from the replica's"
  in
  (* The server records a request's time just after replying, so a traced
     reply waits (outside the timed interval) until that record landed:
     the next request's baseline then holds no earlier request. *)
  let server_span = ref 0 in
  let request ?sql_text ~op params =
    let calls0, elapsed0 = if !Trace.on then fst (Trace.probe (fun () -> Child.stats server)) else (0, 0.) in
    call c ~op params ~after:(fun rtt doc line ->
        if !Trace.on then begin
          let _, elapsed1 = fst (Trace.probe (fun () -> Child.stats ~after:calls0 server)) in
          frame_probe rtt doc line;
          (* The server stamps a request's time after its reply write
             returned, which can be after the client already holds the
             reply; such spans are clipped to the round trip and counted. *)
          let server_s = elapsed1 -. elapsed0 and rtt_s = Trace.duration rtt in
          if server_s > rtt_s then Trace.count "server.clipped" 1.;
          let sid = Trace.attach ~parent:rtt "server.request" (Float.min server_s rtt_s) in
          server_span := sid;
          Option.iter
            (fun text ->
              ignore
                (Trace.attach ~parent:sid "sql.parse"
                   (snd (Trace.probe (fun () -> ignore (sql text))))))
            sql_text
        end)
  in
  let ok = function Ok r -> r | Error (code, m) -> failwith (code ^ ": " ^ m) in
  (* A read that missed the answer cache was evaluated on the server.  Its
     library layers are timed by re-running the same public calls on the
     replica, which holds the same data (o-sharing, the default: partition,
     representatives, singleton units and the factorized pass; or
     Topk.run), and attached under the request's server span.  The
     replica's plan cache and column memo are warm from the answer checks,
     as the server's are from earlier requests, but they are not the
     server's own. *)
  let eval_layers ~topk q reply =
    if !Trace.on && member "cached" reply = Json.Bool false then begin
      let sid = !server_span and h = head () in
      let ctx = h.Vcatalog.ctx and ms = h.Vcatalog.mappings in
      if topk then begin
        let r, d = Trace.probe (fun () -> Urm.Topk.run ~k:5 ctx q ms) in
        ignore (Trace.attach ~parent:sid "topk" d);
        Lib_workloads.count_topk r
      end
      else begin
        let units, rewrite =
          Trace.probe (fun () ->
              Urm.Factorized.singleton_units ctx q
                (Urm.Ptree.represent (Urm.Ptree.partition ctx.Urm.Ctx.target q ms)))
        in
        let ctrs = Urm_relalg.Eval.fresh_counters () in
        let r, eval = Trace.probe (fun () -> Urm.Factorized.eval ~ctrs ~cse:true ctx q units) in
        let exec = fst (Trace.probe (fun () -> Lib_workloads.exec_probe ~cse:true ctx units)) in
        ignore (Trace.attach ~parent:sid "reformulate" rewrite);
        let fold = Trace.attach ~parent:sid "answer.fold" eval in
        ignore (Trace.attach ~parent:fold "mqo.plan" r.Urm.Factorized.plan_time);
        ignore (Trace.attach ~parent:fold "relalg.exec" exec);
        Lib_workloads.count_factorized ctrs r ~units:(List.length units)
      end
    end
  in
  let read q ?sql_text params =
    let reply = ok (request ?sql_text ~op:"query" params) in
    eval_layers ~topk:false q reply;
    check_exact q reply
  in
  let read_sql text =
    let q = sql text in
    { cls = "query"; run = (fun () -> read q ~sql_text:text [ session; ("sql", str text) ]) }
  in
  let read_named (n, q) =
    { cls = "query"; run = (fun () -> read q [ session; ("query", str n) ]) }
  in
  let read_incr (n, q) =
    {
      cls = "query";
      run =
        (fun () ->
          check_incr n q
            (ok (request ~op:"query" [ session; ("query", str n); ("algorithm", str "incr"); ("answers", int 500) ])));
    }
  in
  let topk_sql text =
    let q = sql text in
    {
      cls = "topk";
      run =
        (fun () ->
          let reply = ok (request ~sql_text:text ~op:"topk" [ session; ("sql", str text); ("k", int 5) ]) in
          eval_layers ~topk:true q reply;
          check_topk q reply);
    }
  in
  let write batch =
    {
      cls = "write";
      run =
        (fun () ->
          let reply = ok (request ~op:"mutate" [ session; ("mutations", Mutation.batch_to_json batch) ]) in
          fun () ->
            let t0 = now () in
            match Vcatalog.commit replica batch with
            | Error m -> Some ("replica rejected the batch: " ^ m)
            | Ok out ->
              commit_ms := ms (now () -. t0) :: !commit_ms;
              let epoch = out.Vcatalog.snapshot.Vcatalog.epoch in
              if Json.to_float (member "epoch" reply) = float_of_int epoch
                 && Json.to_float (member "applied" reply) = float_of_int (List.length batch)
              then None
              else Some "mutate reply disagrees with the replica's commit");
    }
  in
  (* A round's two mutate batches: insert 1-10 fresh-key rows, and delete
     the rows the previous round inserted, so the relation keeps its size
     however many rounds a run completes. *)
  let previous = ref [] in
  let writes rng =
    let rel = Urm_relalg.Catalog.find (head ()).Vcatalog.ctx.Urm.Ctx.catalog target_rel in
    let rows = fresh_rows rng rel ~n:(1 + Random.State.int rng 10) ~serial in
    let deletes = List.map (fun row -> Mutation.Delete { rel = target_rel; row }) !previous in
    previous := rows;
    write (List.map (fun row -> Mutation.Insert { rel = target_rel; row }) rows)
    :: (if deletes = [] then [] else [ write deletes ])
  in
  (* One round: 10 ad-hoc reads, 4 named reads, 2 incr reads, 2 ad-hoc
     top-5s and 2 mutate batches (10%), in seeded order. *)
  let rounds r =
    let rng = rng_for ~seed ~round:r 1 in
    let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
    shuffle ~seed ~round:r
      (List.init 10 (fun _ -> read_sql (adhoc_sql rng))
      @ List.init 4 (fun _ -> read_named (pick named))
      @ List.init 2 (fun _ -> read_incr (pick named))
      @ List.init 2 (fun _ -> topk_sql (adhoc_sql rng))
      @ writes rng)
  in
  let cache_stats () =
    let m = ok (request ~op:"metrics" []) in
    let cache = member "cache" m and plans = member "plan_cache" m in
    let f k j = Json.to_float (member k j) in
    ( (f "hit" cache, f "miss" cache, f "evict" cache, f "removed" (member "invalidate" cache)),
      (f "hit" plans, f "miss" plans) )
  in
  let warm = fresh_stats () in
  ignore (drive warm ~rounds ~from:(-1) ~max_rounds:1 ());
  Gc.compact ();
  let st = fresh_stats () in
  st.attempted <- warm.attempted;
  st.failed <- warm.failed;
  let host = host_start ~extra_cpu:(child_cpu server) () in
  let after_round, peak_rss = rss_after_rounds 300 server in
  let done_rounds = drive st ~rounds ~from:0 ~after_round ~seconds:(if trace then seconds /. 2. else seconds) () in
  let host_values = host_metrics ~extra_cpu:(child_cpu server) host st in
  let e2e =
    [
      metric "setup_s" "s" setup_s;
      metric "ops_per_s" "ops/s" (ops_per_s st);
      metric "query_p50_ms" "ms" (ms (percentile 0.5 (samples st "query")));
      metric "query_p90_ms" "ms" (ms (percentile 0.9 (samples st "query")));
      metric "topk_p50_ms" "ms" (ms (percentile 0.5 (samples st "topk")));
      metric "peak_rss_mb" "MiB" (peak_rss ());
    ]
  in
  if not trace then (st, e2e, host_values)
  else begin
    let (h0, m0, e0, r0), (ph0, pm0) = cache_stats () in
    commit_ms := [];
    catch_up_ms := [];
    patched := 0;
    catch_ups := 0;
    let ust, tst = interleaved st ~rounds ~from:done_rounds ~n:(max 1 (done_rounds / 2)) in
    let (h1, m1, e1, r1), (ph1, pm1) = cache_stats () in
    let layers =
      Layers.of_trace ~untraced:ust ~traced:tst
      @ [
          ("tpch.generate_s", generate_s);
          ("bipartite.mappings_s", mappings_s);
          ("service.open_session_s", median !open_s);
          ("plan_cache.hit_ratio", ratio (ph1 -. ph0) (ph1 -. ph0 +. pm1 -. pm0));
          ("cache.hit_ratio", ratio (h1 -. h0) (h1 -. h0 +. m1 -. m0));
          ("cache.evictions", ratio (e1 -. e0) (float_of_int (ust.ops + tst.ops)));
          ("cache.invalidated", ratio (r1 -. r0) (float_of_int (ust.ops + tst.ops)));
          ("incr.commit_ms", mean !commit_ms);
          ("incr.catch_up_ms", mean !catch_up_ms);
          ("incr.patched_ratio", ratio (float_of_int !patched) (float_of_int !catch_ups));
        ]
      @ host_values
    in
    (st, e2e, layers)
  end

(* ------------------------------------------------------------------ *)
(* shard-q4 *)

let shards = 2
let q4_session = ("session", str "excel")

let q4_open =
  [
    q4_session;
    ("target", str "Excel");
    ("seed", int 42);
    ("scale", Json.Num 0.01);
    ("h", int 8);
  ]

let q4_query alg = [ q4_session; ("query", str "Q4"); ("algorithm", str alg) ]

(* Sums a reply's partial answers: the tuples the router decodes and
   merges for one fan-out. *)
let partial_tuples reply =
  match member "partials" reply with
  | Json.Arr parts ->
    List.fold_left
      (fun acc p -> match member "answers" p with Json.Arr a -> acc + List.length a | _ -> acc)
      0 parts
  | _ -> 0

let shard_q4 ~seed ~seconds ~trace =
  let (router, c), setup_s =
    repeated_setup setups (fun () -> start_child "router" q4_open) stop_child
  in
  Fun.protect ~finally:(fun () -> stop_child (router, c)) @@ fun () ->
  Child.compact router;
  (* The single-process reference the router must match byte for byte. *)
  let oracle = Server.start { Server.default_config with port = 0 } in
  let oc = framed_client (Server.port oracle) in
  Fun.protect ~finally:(fun () -> Client.close oc; stop_server oracle) @@ fun () ->
  ignore (call_exn oc ~op:"open-session" q4_open);
  let osession =
    match Session.find (Server.sessions oracle) "excel" with
    | Some s -> s
    | None -> failwith "oracle session missing"
  in
  let q4 = snd (Urm_workload.Queries.by_name "Q4") in
  (* Mutations go to the smallest relation Q4 reads. *)
  let target_rel =
    let snap = Session.snapshot osession in
    let size r = Array.length (Urm_relalg.Catalog.find snap.Vcatalog.ctx.Urm.Ctx.catalog r).Urm_relalg.Relation.rows in
    List.hd (List.sort (fun a b -> compare (size a) (size b)) (Urm_incr.State.query_deps snap q4))
  in
  let serial = ref 0 in
  let partial_ms = ref [] and partial_bytes = ref [] and router_self = ref [] in
  let merge_tuples = ref [] and broadcast_ms = ref [] in
  let ok = function Ok r -> r | Error (code, m) -> failwith (code ^ ": " ^ m) in
  (* Oracle calls are checking, not the program: never spans. *)
  let oracle_call ~op params = Trace.untraced (fun () -> ok (call oc ~op params)) in
  let same_as_oracle ~op params reply () =
    let want = oracle_call ~op params in
    if String.equal (answer_key (perturbed reply)) (answer_key want) then None
    else Some (Printf.sprintf "router %s reply differs from the single server's" op)
  in
  (* The partial requests the router sends for one fan-out, replayed
     against the single server: their slowest time stands in for the
     workers' share of the fan-out RTT. *)
  let partials alg =
    let h = List.length (Session.mappings osession) in
    List.init shards (fun i ->
        match alg with
        | "basic" ->
          let lo, hi = (Urm_shard.Hash.ranges ~shards ~h).(i) in
          q4_query alg @ [ ("range_lo", int lo); ("range_hi", int hi) ]
        | _ -> q4_query alg @ [ ("slot", int i); ("slots", int shards); ("expect_h", int h) ])
  in
  let fan_probe alg rtt _doc _line =
    if !Trace.on then begin
      let times, _ =
        Trace.probe (fun () ->
            List.map
              (fun params ->
                let t0 = now () in
                match Client.roundtrip oc (Json.to_string (Protocol.request ~op:"query" params)) with
                | Error e -> failwith e
                | Ok line ->
                  let dt = now () -. t0 in
                  let reply =
                    match Protocol.parse_reply line with
                    | Ok (Protocol.Ok (_, r)) -> r
                    | _ -> Json.Null
                  in
                  (dt, String.length line, partial_tuples reply))
              (partials alg))
      in
      let slowest = List.fold_left (fun a (d, _, _) -> Float.max a d) 0. times in
      ignore (Trace.attach ~parent:rtt "shard.partial" slowest);
      partial_ms := ms slowest :: !partial_ms;
      partial_bytes := float_of_int (List.fold_left (fun a (_, b, _) -> a + b) 0 times) :: !partial_bytes;
      merge_tuples := float_of_int (List.fold_left (fun a (_, _, n) -> a + n) 0 times) :: !merge_tuples
    end
  in
  let fan alg cls =
    {
      cls;
      run =
        (fun () ->
          let t0 = now () in
          let rtt_end = ref 0. in
          let reply =
            ok
              (call c ~op:"query" (q4_query alg) ~after:(fun rtt doc line ->
                   rtt_end := now ();
                   fan_probe alg rtt doc line))
          in
          if !Trace.on then
            router_self := ms (!rtt_end -. t0) -. List.hd !partial_ms :: !router_self;
          same_as_oracle ~op:"query" (q4_query alg) reply);
    }
  in
  let topk k =
    let params = [ q4_session; ("query", str "Q4"); ("k", int k) ] in
    { cls = "topk"; run = (fun () -> same_as_oracle ~op:"topk" params (ok (call c ~op:"topk" params))) }
  in
  (* Rounds alternately insert 1-10 fresh-key rows and delete them again,
     so the instance keeps its size however many rounds a run completes. *)
  let previous = ref [] in
  let write rng =
    let batch =
      match !previous with
      | [] ->
        let rel = Urm_relalg.Catalog.find (Session.snapshot osession).Vcatalog.ctx.Urm.Ctx.catalog target_rel in
        let rows = fresh_rows rng rel ~n:(1 + Random.State.int rng 10) ~serial in
        previous := rows;
        List.map (fun row -> Mutation.Insert { rel = target_rel; row }) rows
      | rows ->
        previous := [];
        List.map (fun row -> Mutation.Delete { rel = target_rel; row }) rows
    in
    let params = [ q4_session; ("mutations", Mutation.batch_to_json batch) ] in
    {
      cls = "write";
      run =
        (fun () ->
          let t0 = now () in
          let reply = ok (call c ~op:"mutate" params) in
          let router_ms = ms (now () -. t0) in
          fun () ->
            let t1 = now () in
            let want = oracle_call ~op:"mutate" params in
            if !Trace.on then broadcast_ms := router_ms -. ms (now () -. t1) :: !broadcast_ms;
            let epoch r = member "epoch" r and applied r = member "applied" r in
            if epoch reply = epoch want && applied reply = applied want then None
            else Some "router mutate reply differs from the single server's");
    }
  in
  (* One round: a mutate first (it invalidates Q4's cached partials and
     answers, so the round's first fan-out recomputes on the workers),
     then four basic fan-outs, one e-basic unit fan-out and five top-k
     ops, in seeded order.  The top-k ops ask for k = 3..7, so none is
     served from the answer cache, and the median falls inside the
     middle one's cluster. *)
  let rounds r =
    let rng = rng_for ~seed ~round:r 2 in
    write rng
    :: shuffle ~seed ~round:r
         (List.init 4 (fun _ -> fan "basic" "query") @ (fan "e-basic" "units" :: List.init 5 (fun i -> topk (3 + i))))
  in
  let warm = fresh_stats () in
  ignore (drive warm ~rounds ~from:(-1) ~max_rounds:1 ());
  Gc.compact ();
  let st = fresh_stats () in
  st.attempted <- warm.attempted;
  st.failed <- warm.failed;
  let host = host_start ~extra_cpu:(child_cpu router) () in
  let after_round, peak_rss = rss_after_rounds 4 router in
  let done_rounds = drive st ~rounds ~from:0 ~after_round ~seconds:(if trace then seconds /. 2. else seconds) () in
  let host_values = host_metrics ~extra_cpu:(child_cpu router) host st in
  let e2e =
    [
      metric "setup_s" "s" setup_s;
      metric "ops_per_s" "ops/s" (ops_per_s st);
      metric "query_p50_ms" "ms" (ms (percentile 0.5 (samples st "query")));
      metric "query_p90_ms" "ms" (ms (percentile 0.9 (samples st "query")));
      metric "topk_p50_ms" "ms" (ms (percentile 0.5 (samples st "topk")));
      metric "peak_rss_mb" "MiB" (peak_rss ());
    ]
  in
  if not trace then (st, e2e, host_values)
  else begin
    let ust, tst = interleaved st ~rounds ~from:done_rounds ~n:(max 1 (done_rounds / 2)) in
    let layers =
      Layers.of_trace ~untraced:ust ~traced:tst
      @ [
          ("shard.partial_ms", mean !partial_ms);
          ("shard.partial_bytes", mean !partial_bytes);
          ("router.self_ms", mean !router_self);
          ("router.merge_tuples", mean !merge_tuples);
          ("router.broadcast_ms", mean !broadcast_ms);
        ]
      @ host_values
    in
    (st, e2e, layers)
  end
