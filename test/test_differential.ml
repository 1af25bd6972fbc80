(* The cross-algorithm differential oracle suite.

   qcheck generators produce random mapping distributions (random 1:1
   correspondence subsets with random normalised probabilities, the shape
   [Urm.Mapgen] emits) and random target queries (selections, joins,
   aggregates) over the paper's running-example schemas and the workload
   schemas.  The property: every exact algorithm, on both engines, returns
   the same (tuple, probability) answer set within [Urm.Prob.eps] as the
   interpreted basic algorithm, and top-k answers are a prefix of the full
   ranking. *)

let s v = Urm_relalg.Value.Str v

let exact_algorithms =
  [
    Urm.Algorithms.Basic;
    Urm.Algorithms.Ebasic;
    Urm.Algorithms.Emqo;
    Urm.Algorithms.Qsharing;
    Urm.Algorithms.Osharing Urm.Eunit.Sef;
    Urm.Algorithms.Osharing Urm.Eunit.Snf;
    Urm.Algorithms.Osharing Urm.Eunit.Random;
  ]

(* All algorithms, all engines, against the interpreted basic.  [ctxs] is
   a list of (engine label, context) over the same catalog — the first one
   is the baseline's.  Returns the first disagreement as a counterexample
   description. *)
let disagreement ctxs q ms =
  let _, baseline_ctx = List.hd ctxs in
  let baseline =
    (Urm.Algorithms.run Urm.Algorithms.Basic baseline_ctx q ms).Urm.Report.answer
  in
  List.find_map
    (fun (engine, ctx) ->
      List.find_map
        (fun alg ->
          let answer = (Urm.Algorithms.run alg ctx q ms).Urm.Report.answer in
          if Urm.Answer.equal ~eps:Urm.Prob.eps baseline answer then None
          else
            Some
              (Printf.sprintf "%s (%s) disagrees with interpreted basic"
                 (Urm.Algorithms.name alg) engine))
        exact_algorithms)
    ctxs

let check_agreement ctxs q ms =
  match disagreement ctxs q ms with
  | None -> true
  | Some msg -> QCheck.Test.fail_report msg

(* Interpreted first (it provides the baseline), then the plan engine. *)
let both_engines mk =
  [
    ("interpreted", mk Urm_relalg.Compile.Interpreted);
    ("vectorized", mk Urm_relalg.Compile.Vectorized);
  ]

(* ------------------------------------------------------------------ *)
(* Random mapping distributions over the running-example schemas. *)

(* Candidate correspondences, one bucket per target attribute (the
   matcher's shape).  A generated mapping picks at most one source per
   target and keeps the choice 1:1 on the source side too. *)
let correspondence_pool =
  [
    ("Person.pname", [ "Customer.cname"; "Customer.mobile" ]);
    ("Person.phone", [ "Customer.ophone"; "Customer.hphone"; "Customer.mobile" ]);
    ("Person.addr", [ "Customer.oaddr"; "Customer.haddr" ]);
    ("Person.nation", [ "Nation.name" ]);
    ("Person.gender", [ "Customer.nid" ]);
    ("Order.price", [ "C_Order.amount" ]);
    ("Order.item", [ "Nation.name" ]);
    ("Order.total", [ "C_Order.amount" ]);
  ]

let pairs_gen =
  QCheck.Gen.(
    let bucket (tgt, sources) =
      let* keep = bool in
      if keep then
        let* src = oneofl sources in
        return (Some (tgt, src))
      else return None
    in
    let* chosen = flatten_l (List.map bucket correspondence_pool) in
    let pairs = List.filter_map Fun.id chosen in
    (* enforce 1:1 on the source side: first target wins *)
    let _, pairs =
      List.fold_left
        (fun (seen, acc) (tgt, src) ->
          if List.mem src seen then (seen, acc)
          else (src :: seen, (tgt, src) :: acc))
        ([], []) pairs
    in
    return (List.rev pairs))

let mappings_gen =
  QCheck.Gen.(
    let* raw = list_size (1 -- 6) (pair pairs_gen (float_range 0.1 10.)) in
    let raw = List.filter (fun (pairs, _) -> pairs <> []) raw in
    if raw = [] then return []
    else
      let total = List.fold_left (fun t (_, w) -> t +. w) 0. raw in
      return
        (List.mapi
           (fun id (pairs, w) ->
             Urm.Mapping.make ~id ~prob:(w /. total) ~score:w pairs)
           raw))

(* ------------------------------------------------------------------ *)
(* Random target queries over the running-example schemas. *)

let selection_gen =
  QCheck.Gen.oneofl
    [
      (Urm.Query.at "Person" "addr", s "aaa");
      (Urm.Query.at "Person" "addr", s "hk");
      (Urm.Query.at "Person" "phone", s "456");
      (Urm.Query.at "Person" "pname", s "Alice");
      (Urm.Query.at "Person" "nation", s "HK");
    ]

let query_gen =
  QCheck.Gen.(
    let person_sels = list_size (1 -- 3) selection_gen in
    let plain =
      let* sels = person_sels in
      let* project = bool in
      return
        (Urm.Query.make ~name:"rand-plain" ~target:Test_core.target
           ~aliases:[ ("Person", "Person") ]
           ~selections:(List.sort_uniq compare sels)
           ?projection:
             (if project then
                Some [ Urm.Query.at "Person" "phone"; Urm.Query.at "Person" "addr" ]
              else None)
           ())
    in
    let join =
      let* sels = list_size (0 -- 2) selection_gen in
      return
        (Urm.Query.make ~name:"rand-join" ~target:Test_core.target
           ~aliases:[ ("Person", "Person"); ("Order", "Order") ]
           ~selections:(List.sort_uniq compare sels)
           ~joins:[ (Urm.Query.at "Person" "pname", Urm.Query.at "Order" "sname") ]
           ())
    in
    let count =
      let* sels = person_sels in
      let* grouped = bool in
      return
        (Urm.Query.make ~name:"rand-count" ~target:Test_core.target
           ~aliases:[ ("Person", "Person") ]
           ~selections:(List.sort_uniq compare sels)
           ~aggregate:Urm.Query.Count
           ?group_by:
             (if grouped then Some [ Urm.Query.at "Person" "nation" ] else None)
           ())
    in
    let sum =
      let* item = oneofl [ "HK"; "CN" ] in
      return
        (Urm.Query.make ~name:"rand-sum" ~target:Test_core.target
           ~aliases:[ ("Order", "Order") ]
           ~selections:[ (Urm.Query.at "Order" "item", s item) ]
           ~aggregate:(Urm.Query.Sum (Urm.Query.at "Order" "price"))
           ())
    in
    oneof [ plain; join; count; sum ])

let qcheck_running_example =
  QCheck.Test.make
    ~name:"random queries × random mapping sets agree across algorithms and engines"
    ~count:40
    (QCheck.make QCheck.Gen.(pair query_gen mappings_gen))
    (fun (q, ms) ->
      QCheck.assume (ms <> []);
      let cat = Test_core.catalog () in
      let ctxs =
        both_engines (fun engine ->
            Urm.Ctx.make ~engine ~catalog:cat ~source:Test_core.source
              ~target:Test_core.target ())
      in
      check_agreement ctxs q ms)

(* ------------------------------------------------------------------ *)
(* Random queries over the workload schemas (Excel), with matcher-derived
   mapping distributions from the pipeline. *)

let workload = lazy (Urm_workload.Pipeline.create ~seed:11 ~scale:0.005 ())

let workload_case_gen =
  QCheck.Gen.(
    let* h = 4 -- 12 in
    let* q =
      oneof
        [
          (let* n = 1 -- 4 in
           return (Urm_workload.Sweeps.selections n));
          (let* n = 1 -- 2 in
           return (Urm_workload.Sweeps.self_joins n));
          (* Q1–Q5 are the Excel-targeted queries of Table III. *)
          oneofl
            Urm_workload.Queries.[ q1; q2; q3; q4; q5 ];
        ]
    in
    return (q, h))

let qcheck_workload =
  QCheck.Test.make
    ~name:"workload queries × pipeline mappings agree across algorithms and engines"
    ~count:10
    (QCheck.make workload_case_gen)
    (fun (q, h) ->
      let p = Lazy.force workload in
      let excel = Urm_workload.Targets.excel in
      let ctxs =
        both_engines (fun engine -> Urm_workload.Pipeline.ctx ~engine p excel)
      in
      let ms = Urm_workload.Pipeline.mappings p excel ~h in
      check_agreement ctxs q ms)

(* ------------------------------------------------------------------ *)
(* Top-k answers are a prefix of the full ranking. *)

let qcheck_topk_prefix =
  QCheck.Test.make ~name:"top-k answers are a prefix of the full ranking"
    ~count:30
    (QCheck.make
       QCheck.Gen.(triple query_gen mappings_gen (1 -- 5)))
    (fun (q, ms, k) ->
      QCheck.assume (ms <> []);
      let ctx = Test_core.ctx () in
      let full =
        (Urm.Algorithms.run Urm.Algorithms.Basic ctx q ms).Urm.Report.answer
      in
      let r = Urm.Topk.run ~k ctx q ms in
      let got = Urm.Answer.to_list r.Urm.Topk.report.Urm.Report.answer in
      let truth = Urm.Answer.top_k full k in
      let kth = match List.rev truth with [] -> 0. | (_, p) :: _ -> p in
      List.length got = min k (Urm.Answer.size full)
      && List.for_all
           (fun (t, _) -> Urm.Answer.prob_of full t >= kth -. Urm.Prob.eps)
           got)

(* ------------------------------------------------------------------ *)
(* The factorized-executor dimension: deterministic sweeps that pin the
   cases the random generators visit only occasionally. *)

(* h ∈ {1, 7, 32}: h = 1 is the degenerate single-unit pass (the weight
   vector has one entry and no key ever repeats), 32 exceeds the batch
   of distinct reformulations so units genuinely dedup and replay.  Basic
   on the plan engine (singleton units, replaying repeated keys) adds the
   same floats in the same per-bucket order as the interpreted per-mapping
   loop, so its rendered answer must be byte-equal, not just eps-close. *)
let test_factorized_h_sweep () =
  let p = Lazy.force workload in
  let excel = Urm_workload.Targets.excel in
  let ctxs =
    both_engines (fun engine -> Urm_workload.Pipeline.ctx ~engine p excel)
  in
  let basic_json ctx q ms =
    Urm_util.Json.to_string
      (Urm.Answer.to_json
         (Urm.Algorithms.run Urm.Algorithms.Basic ctx q ms).Urm.Report.answer)
  in
  List.iter
    (fun h ->
      let ms = Urm_workload.Pipeline.mappings p excel ~h in
      List.iter
        (fun q ->
          (match disagreement ctxs q ms with
          | None -> ()
          | Some msg -> Alcotest.failf "h=%d: %s" h msg);
          match List.map (fun (_, ctx) -> basic_json ctx q ms) ctxs with
          | [ interpreted; vectorized ] ->
            Alcotest.(check string)
              (Printf.sprintf "h=%d %s: vectorized basic bytes" h
                 q.Urm.Query.name)
              interpreted vectorized
          | _ -> assert false)
        Urm_workload.Queries.[ q1; q4 ])
    [ 1; 7; 32 ]

(* Mappings sharing one correspondence set reformulate to the same e-unit:
   the factorized pass must collapse them into one weight vector (and the
   replay memo must hand repeated keys the recorded cells), still agreeing
   with the interpreted per-mapping oracle. *)
let test_factorized_duplicate_mappings () =
  let mk id prob pairs = Urm.Mapping.make ~id ~prob ~score:prob pairs in
  let office =
    [ ("Person.phone", "Customer.ophone"); ("Person.addr", "Customer.oaddr") ]
  in
  let home =
    [ ("Person.phone", "Customer.hphone"); ("Person.addr", "Customer.haddr") ]
  in
  let ms =
    [
      mk 0 0.3 office; mk 1 0.25 home; mk 2 0.2 office; mk 3 0.15 office;
      mk 4 0.1 home;
    ]
  in
  let cat = Test_core.catalog () in
  let ctxs =
    both_engines (fun engine ->
        Urm.Ctx.make ~engine ~catalog:cat ~source:Test_core.source
          ~target:Test_core.target ())
  in
  List.iter
    (fun q ->
      match disagreement ctxs q ms with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s" q.Urm.Query.name msg)
    [
      Urm.Query.make ~name:"dup-sel" ~target:Test_core.target
        ~aliases:[ ("Person", "Person") ]
        ~selections:[ (Urm.Query.at "Person" "addr", s "aaa") ]
        ();
      Urm.Query.make ~name:"dup-count" ~target:Test_core.target
        ~aliases:[ ("Person", "Person") ]
        ~aggregate:Urm.Query.Count ();
    ]

(* The plan engines must actually take the factorized executor (and say
   so in the report), while the interpreted oracle keeps its name. *)
let test_factorized_engine_recorded () =
  let p = Lazy.force workload in
  let excel = Urm_workload.Targets.excel in
  let ms = Urm_workload.Pipeline.mappings p excel ~h:7 in
  let q = Urm_workload.Queries.q1 in
  let check engine alg expect =
    let ctx = Urm_workload.Pipeline.ctx ~engine p excel in
    let r = Urm.Algorithms.run alg ctx q ms in
    Alcotest.(check string)
      (Printf.sprintf "%s engine string" (Urm.Algorithms.name alg))
      expect r.Urm.Report.engine
  in
  List.iter
    (fun alg ->
      check Urm_relalg.Compile.Vectorized alg "vectorized+factorized";
      check Urm_relalg.Compile.Interpreted alg "interpreted")
    [
      Urm.Algorithms.Basic; Urm.Algorithms.Ebasic; Urm.Algorithms.Emqo;
      Urm.Algorithms.Qsharing; Urm.Algorithms.Osharing Urm.Eunit.Sef;
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_running_example;
    QCheck_alcotest.to_alcotest qcheck_workload;
    QCheck_alcotest.to_alcotest qcheck_topk_prefix;
    Alcotest.test_case "factorized h sweep (1, 7, 32) matches the oracle" `Slow
      test_factorized_h_sweep;
    Alcotest.test_case "duplicate mappings collapse and replay" `Quick
      test_factorized_duplicate_mappings;
    Alcotest.test_case "reports record the effective engine" `Quick
      test_factorized_engine_recorded;
  ]
