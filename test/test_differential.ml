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

let mappings_gen_sized size =
  QCheck.Gen.(
    let* raw = list_size size (pair pairs_gen (float_range 0.1 10.)) in
    let raw = List.filter (fun (pairs, _) -> pairs <> []) raw in
    if raw = [] then return []
    else
      let total = List.fold_left (fun t (_, w) -> t +. w) 0. raw in
      return
        (List.mapi
           (fun id (pairs, w) ->
             Urm.Mapping.make ~id ~prob:(w /. total) ~score:w pairs)
           raw))

let mappings_gen = mappings_gen_sized QCheck.Gen.(1 -- 6)

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
(* Top-k and threshold against the exact answer, on both engines: the
   reported probabilities are lower bounds, and the reported set is the
   exact one wherever the exact probabilities separate it by more than
   [Prob.eps]. *)

let eps = Urm.Prob.eps

let running_example_ctxs () =
  let cat = Test_core.catalog () in
  both_engines (fun engine ->
      Urm.Ctx.make ~engine ~catalog:cat ~source:Test_core.source
        ~target:Test_core.target ())

let bounded_by exact got =
  List.for_all (fun (t, p) -> p <= Urm.Answer.prob_of exact t +. eps) got

let same_tuples a b =
  List.length a = List.length b
  && List.for_all
       (fun (t, _) -> List.exists (fun (u, _) -> Urm.Answer.tuple_equal t u) b)
       a

let topk_matches_exact ~k exact got =
  let truth = Urm.Answer.top_k exact (k + 1) in
  let first_k = List.filteri (fun i _ -> i < k) truth in
  let separated =
    match (List.nth_opt truth (k - 1), List.nth_opt truth k) with
    | Some (_, kth), Some (_, next) -> kth -. next > eps
    | _ -> true
  in
  List.length got = List.length first_k
  && bounded_by exact got
  && ((not separated) || same_tuples got first_k)

let threshold_matches_exact ~tau exact got =
  let exact_list = Urm.Answer.to_list exact in
  let separated =
    List.for_all (fun (_, p) -> Float.abs (p -. (tau -. eps)) > eps) exact_list
  in
  bounded_by exact got
  && List.for_all (fun (_, p) -> p >= tau -. eps) got
  && ((not separated)
     || same_tuples got (List.filter (fun (_, p) -> p >= tau -. eps) exact_list))

let check_bounded_on ctxs q ms ~name ~run ~matches =
  List.for_all
    (fun (engine, ctx) ->
      let exact =
        (Urm.Algorithms.run Urm.Algorithms.Basic ctx q ms).Urm.Report.answer
      in
      let got = Urm.Answer.to_list (run ctx).Urm.Report.answer in
      matches exact got
      || QCheck.Test.fail_reportf "%s (%s) on %s disagrees with the exact answer"
           name engine q.Urm.Query.name)
    ctxs

(* More mappings than the agreement suites draw, and many cases (each is
   tiny): more representatives, so more passes the bounds stop early —
   the cases where a wrong stop rule shows. *)
let bounded_mappings_gen = mappings_gen_sized QCheck.Gen.(4 -- 14)

let qcheck_topk_exact =
  QCheck.Test.make
    ~name:"top-k is the exact first k wherever the k-th probability separates"
    ~count:1000
    (QCheck.make QCheck.Gen.(triple query_gen bounded_mappings_gen (1 -- 5)))
    (fun (q, ms, k) ->
      QCheck.assume (ms <> []);
      check_bounded_on (running_example_ctxs ()) q ms
        ~name:(Printf.sprintf "top-%d" k)
        ~run:(fun ctx -> (Urm.Topk.run ~k ctx q ms).Urm.Topk.report)
        ~matches:(topk_matches_exact ~k))

let tau_gen =
  QCheck.Gen.(oneof [ float_range 0.01 1.; oneofl [ 0.1; 0.2; 0.25; 0.5; 1. ] ])

let qcheck_threshold_exact =
  QCheck.Test.make
    ~name:"threshold is the exact set wherever no probability sits at tau"
    ~count:1000
    (QCheck.make QCheck.Gen.(triple query_gen bounded_mappings_gen tau_gen))
    (fun (q, ms, tau) ->
      QCheck.assume (ms <> []);
      check_bounded_on (running_example_ctxs ()) q ms
        ~name:(Printf.sprintf "threshold %g" tau)
        ~run:(fun ctx -> (Urm.Threshold.run ~tau ctx q ms).Urm.Threshold.report)
        ~matches:(threshold_matches_exact ~tau))

let qcheck_topk_threshold_workload =
  QCheck.Test.make
    ~name:"top-k and threshold match exact on workload queries"
    ~count:10
    (QCheck.make
       QCheck.Gen.(triple workload_case_gen (1 -- 20) tau_gen))
    (fun ((q, h), k, tau) ->
      let p = Lazy.force workload in
      let excel = Urm_workload.Targets.excel in
      let ms = Urm_workload.Pipeline.mappings p excel ~h in
      let ctxs =
        both_engines (fun engine -> Urm_workload.Pipeline.ctx ~engine p excel)
      in
      check_bounded_on ctxs q ms
        ~name:(Printf.sprintf "top-%d" k)
        ~run:(fun ctx -> (Urm.Topk.run ~k ctx q ms).Urm.Topk.report)
        ~matches:(topk_matches_exact ~k)
      && check_bounded_on ctxs q ms
           ~name:(Printf.sprintf "threshold %g" tau)
           ~run:(fun ctx -> (Urm.Threshold.run ~tau ctx q ms).Urm.Threshold.report)
           ~matches:(threshold_matches_exact ~tau))

(* ------------------------------------------------------------------ *)
(* The selection probe: on the plan engine, basic, q-sharing and
   o-sharing reformulate with a per-run emptiness probe of every equality
   selection.  Their answers must be byte-equal to the factorized pass
   over units reformulated without it, for constants the source holds,
   constants it does not, and constants of the wrong type. *)

let probe_selection_gen =
  let i v = Urm_relalg.Value.Int v and f v = Urm_relalg.Value.Float v in
  QCheck.Gen.(
    let* attr = oneofl [ "pname"; "phone"; "addr"; "nation"; "gender" ] in
    let* v =
      oneofl
        [
          s "aaa"; s "hk"; s "456"; s "Alice"; s "HK"; s "zzz"; s "1";
          i 1; i 2; i 7; f 1.; f 5.; f 2.25;
        ]
    in
    return (Urm.Query.at "Person" attr, v))

let probe_query_gen =
  let i v = Urm_relalg.Value.Int v and f v = Urm_relalg.Value.Float v in
  QCheck.Gen.(
    let* sels = list_size (1 -- 3) probe_selection_gen in
    let sels = List.sort_uniq compare sels in
    let* order_sel =
      oneofl [ None; Some (f 5.); Some (i 5); Some (f 9.); Some (s "5") ]
    in
    let order_sels =
      Option.to_list (Option.map (fun v -> (Urm.Query.at "Order" "price", v)) order_sel)
    in
    let* shape = 0 -- 3 in
    let* grouped = bool in
    return
      (match shape with
      | 0 ->
        Urm.Query.make ~name:"probe-plain" ~target:Test_core.target
          ~aliases:[ ("Person", "Person") ]
          ~selections:sels ()
      | 1 ->
        Urm.Query.make ~name:"probe-join" ~target:Test_core.target
          ~aliases:[ ("Person", "Person"); ("Order", "Order") ]
          ~selections:(sels @ order_sels)
          ~joins:[ (Urm.Query.at "Person" "pname", Urm.Query.at "Order" "sname") ]
          ()
      | 2 ->
        Urm.Query.make ~name:"probe-count" ~target:Test_core.target
          ~aliases:[ ("Person", "Person") ]
          ~selections:sels ~aggregate:Urm.Query.Count
          ?group_by:
            (if grouped then Some [ Urm.Query.at "Person" "nation" ] else None)
          ()
      | _ ->
        Urm.Query.make ~name:"probe-sum" ~target:Test_core.target
          ~aliases:[ ("Order", "Order") ]
          ~selections:((Urm.Query.at "Order" "item", s "HK") :: order_sels)
          ~aggregate:(Urm.Query.Sum (Urm.Query.at "Order" "price"))
          ()))

let unprobed_bytes ?cse (ctx : Urm.Ctx.t) q ms =
  let units =
    List.map
      (fun m ->
        (Urm.Reformulate.source_query ctx.Urm.Ctx.target q m, [| m.Urm.Mapping.prob |]))
      ms
  in
  let ctrs = Urm_relalg.Eval.fresh_counters () in
  Urm_util.Json.to_string
    (Urm.Answer.to_json (Urm.Factorized.eval ~ctrs ?cse ctx q units).Urm.Factorized.answer)

let qcheck_probe_sound =
  QCheck.Test.make
    ~name:"probed reformulation is byte-equal to the unprobed factorized pass"
    ~count:500
    (QCheck.make QCheck.Gen.(pair probe_query_gen mappings_gen))
    (fun (q, ms) ->
      QCheck.assume (ms <> []);
      let ctx =
        Urm.Ctx.make ~catalog:(Test_core.catalog ()) ~source:Test_core.source
          ~target:Test_core.target ()
      in
      let reps = Urm.Qsharing.representatives ctx q ms in
      let bytes (r : Urm.Report.t) =
        Urm_util.Json.to_string (Urm.Answer.to_json r.Urm.Report.answer)
      in
      List.for_all
        (fun (name, got, want) ->
          String.equal got want
          || QCheck.Test.fail_reportf "%s on %s: %s, unprobed %s" name
               (Urm.Query.to_string q) got want)
        [
          ("basic", bytes (Urm.Basic.run ctx q ms), unprobed_bytes ctx q ms);
          ("q-sharing", bytes (Urm.Qsharing.run ctx q ms), unprobed_bytes ctx q reps);
          ( "o-sharing",
            bytes (Urm.Osharing.run ctx q ms),
            unprobed_bytes ~cse:true ctx q reps );
        ])

(* An absent constant turns the unit unsatisfiable before any plan runs;
   a present one leaves it evaluable.  Fig. 3's mappings 0-3 map pname to
   Customer.cname, mapping 4 to Customer.mobile. *)
let test_probe_marks_absent_constants () =
  let ctx = Test_core.ctx () in
  let ms = Test_core.fig3_mappings () in
  let bodies v =
    let q =
      Urm.Query.make ~name:"probe" ~target:Test_core.target
        ~aliases:[ ("Person", "Person") ]
        ~selections:[ (Urm.Query.at "Person" "pname", v) ]
        ()
    in
    List.map
      (fun ((sq : Urm.Reformulate.t), _) ->
        match sq.Urm.Reformulate.body with
        | Urm.Reformulate.Unsatisfiable -> "unsat"
        | Urm.Reformulate.Trivial -> "trivial"
        | Urm.Reformulate.Expr _ -> "expr")
      (Urm.Factorized.singleton_units ctx q ms)
  in
  let unsat = List.init 5 (fun _ -> "unsat") in
  Alcotest.(check (list string)) "a cname"
    [ "expr"; "expr"; "expr"; "expr"; "unsat" ] (bodies (s "Alice"));
  Alcotest.(check (list string)) "a mobile"
    [ "unsat"; "unsat"; "unsat"; "unsat"; "expr" ] (bodies (s "555"));
  Alcotest.(check (list string)) "absent" unsat (bodies (s "Zoe"));
  Alcotest.(check (list string)) "wrong type" unsat (bodies (Urm_relalg.Value.Int 1))

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
    QCheck_alcotest.to_alcotest qcheck_topk_exact;
    QCheck_alcotest.to_alcotest qcheck_threshold_exact;
    QCheck_alcotest.to_alcotest qcheck_topk_threshold_workload;
    QCheck_alcotest.to_alcotest qcheck_probe_sound;
    Alcotest.test_case "absent selection constants reformulate to unsatisfiable"
      `Quick test_probe_marks_absent_constants;
    Alcotest.test_case "factorized h sweep (1, 7, 32) matches the oracle" `Slow
      test_factorized_h_sweep;
    Alcotest.test_case "duplicate mappings collapse and replay" `Quick
      test_factorized_duplicate_mappings;
    Alcotest.test_case "reports record the effective engine" `Quick
      test_factorized_engine_recorded;
  ]
