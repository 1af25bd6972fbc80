(* The cross-algorithm differential oracle suite.

   qcheck generators produce random mapping distributions (random 1:1
   correspondence subsets with random normalised probabilities, the shape
   [Urm.Mapgen] emits) and random target queries (selections, joins,
   aggregates) over the paper's running-example schemas and the workload
   schemas.  The property: every exact algorithm, on both engines, renders
   the interpreted basic algorithm's answer byte for byte — every unit adds
   its mappings' exact mass, answers sum exactly and a SUM aggregate's key
   is the exact sum of its operands — and top-k answers are a prefix of
   the full ranking. *)

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

let bytes a = Urm_util.Json.to_string (Urm.Answer.to_json a)

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
          if String.equal (bytes baseline) (bytes answer) then None
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
    ("Order.status", [ "Customer.ophone"; "Customer.hphone" ]);
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
    (* Person.phone and Order.status can map to distinct phone columns
       that share values (Customer.ophone/hphone share 123), so the join
       is satisfiable and its predicate decides the answer. *)
    let join =
      let* sels = list_size (0 -- 2) selection_gen in
      return
        (Urm.Query.make ~name:"rand-join" ~target:Test_core.target
           ~aliases:[ ("Person", "Person"); ("Order", "Order") ]
           ~selections:(List.sort_uniq compare sels)
           ~joins:[ (Urm.Query.at "Person" "phone", Urm.Query.at "Order" "status") ]
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

let running_example_ctxs () =
  let cat = Test_core.catalog () in
  both_engines (fun engine ->
      Urm.Ctx.make ~engine ~catalog:cat ~source:Test_core.source
        ~target:Test_core.target ())

let qcheck_running_example =
  QCheck.Test.make
    ~name:"random queries × random mapping sets agree across algorithms and engines"
    ~count:40
    (QCheck.make QCheck.Gen.(pair query_gen mappings_gen))
    (fun (q, ms) ->
      QCheck.assume (ms <> []);
      check_agreement (running_example_ctxs ()) q ms)

(* ------------------------------------------------------------------ *)
(* The possible-worlds oracle ([Translate], test/oracle): each mapping's
   world is the target instance it implies, the target query runs on that
   world, and each answer tuple gets the total probability of the worlds
   that return it (θ the mass of the empty ones).  It shares no code with
   [Reformulate] but [column_for]'s naming, so every byte check above —
   which all go through the same source queries — gets one that does not.

   Plain queries only.  COUNT and SUM are left out: the repo's aggregate
   rule counts over the cover of the attributes a query references, which
   is not the aggregate over any world's target instance, and its
   definition over the world is still open (ROADMAP item 3). *)

let qcheck_possible_worlds =
  QCheck.Test.make
    ~name:"plain queries render the possible-worlds answer on both engines"
    ~count:500
    (QCheck.make QCheck.Gen.(pair query_gen mappings_gen))
    (fun (q, ms) ->
      QCheck.assume (ms <> [] && q.Urm.Query.aggregate = None);
      let ctxs = running_example_ctxs () in
      let oracle = bytes (Translate.answer (List.assoc "interpreted" ctxs) q ms) in
      List.for_all
        (fun (engine, ctx) ->
          let basic = bytes (Urm.Basic.run ctx q ms).Urm.Report.answer in
          String.equal oracle basic
          || QCheck.Test.fail_reportf "basic (%s) on %s: %s, possible worlds: %s"
               engine (Urm.Query.to_string q) basic oracle)
        ctxs)

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
      let ctxs = running_example_ctxs () in
      check_bounded_on ctxs q ms
        ~name:(Printf.sprintf "top-%d" k)
        ~run:(fun ctx -> (Urm.Topk.run ~k ctx q ms).Urm.Topk.report)
        ~matches:(topk_matches_exact ~k)
      &&
      (* A plan pass that visits every unit adds o-sharing's masses in
         another order; exact sums make it the same bits. *)
      let ctx = List.assoc "vectorized" ctxs in
      let r = Urm.Topk.run ~k ctx q ms in
      let exact =
        (Urm.Algorithms.run (Urm.Algorithms.Osharing Urm.Eunit.Sef) ctx q ms)
          .Urm.Report.answer
      in
      let bits = Int64.bits_of_float in
      r.Urm.Topk.stopped_early
      || List.for_all
           (fun (t, p) ->
             Int64.equal (bits p) (bits (Urm.Answer.prob_of exact t)))
           (Urm.Answer.to_list r.Urm.Topk.report.Urm.Report.answer)
      || QCheck.Test.fail_reportf
           "top-%d on %s visited every unit but differs from o-sharing in the bits"
           k q.Urm.Query.name)

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

(* The factorized pass over one unprobed unit per partition, weighted by
   its members' probabilities. *)
let unprobed_bytes ?cse (ctx : Urm.Ctx.t) q partitions =
  let units =
    List.map
      (fun part ->
        ( Urm.Reformulate.source_query ctx.Urm.Ctx.target q (List.hd part),
          Array.of_list (List.map (fun m -> m.Urm.Mapping.prob) part) ))
      partitions
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
      let parts = Urm.Qsharing.partitions ctx q ms in
      let bytes (r : Urm.Report.t) =
        Urm_util.Json.to_string (Urm.Answer.to_json r.Urm.Report.answer)
      in
      List.for_all
        (fun (name, got, want) ->
          String.equal got want
          || QCheck.Test.fail_reportf "%s on %s: %s, unprobed %s" name
               (Urm.Query.to_string q) got want)
        [
          ( "basic",
            bytes (Urm.Basic.run ctx q ms),
            unprobed_bytes ctx q (List.map (fun m -> [ m ]) ms) );
          ("q-sharing", bytes (Urm.Qsharing.run ctx q ms), unprobed_bytes ctx q parts);
          ( "o-sharing",
            bytes (Urm.Osharing.run ctx q ms),
            unprobed_bytes ~cse:true ctx q parts );
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

(* ------------------------------------------------------------------ *)
(* One reformulation per q-sharing partition stands for every member:
   [State.query_deps] and [Factorized.weighted_units] against the
   per-mapping loops they replaced, kept here as references. *)

(* The [Base] leaves of an expression, pre-order, duplicates kept. *)
let rec base_leaves = function
  | Urm_relalg.Algebra.Base n -> [ n ]
  | e -> List.concat_map base_leaves (Urm_relalg.Algebra.children e)

(* Every mapping's stored relations, first-seen order over the mappings. *)
let query_deps_ref (snap : Urm_incr.Vcatalog.snapshot) q =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let note r =
    if not (Hashtbl.mem seen r) then begin
      Hashtbl.add seen r ();
      out := r :: !out
    end
  in
  List.iter
    (fun m ->
      let sq =
        Urm.Reformulate.source_query snap.Urm_incr.Vcatalog.ctx.Urm.Ctx.target q m
      in
      (match sq.Urm.Reformulate.body with
      | Urm.Reformulate.Expr e -> List.iter note (base_leaves e)
      | Urm.Reformulate.Unsatisfiable | Urm.Reformulate.Trivial -> ());
      List.iter note sq.Urm.Reformulate.factor_rels)
    snap.Urm_incr.Vcatalog.mappings;
  List.rev !out

(* Every mapping's reformulation key, grouped in first-seen order, with the
   members' probabilities in mapping order. *)
let weighted_units_ref (ctx : Urm.Ctx.t) q ms =
  let groups = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun m ->
      let k = Urm.Reformulate.key (Urm.Reformulate.source_query ctx.target q m) in
      match Hashtbl.find_opt groups k with
      | Some ps -> ps := m.Urm.Mapping.prob :: !ps
      | None ->
        Hashtbl.add groups k (ref [ m.Urm.Mapping.prob ]);
        order := k :: !order)
    ms;
  List.rev_map (fun k -> (k, Array.of_list (List.rev !(Hashtbl.find groups k)))) !order

(* [None] when both agree: the deps list (same order), and the units'
   keys (same order) with the same exact mass per key. *)
let per_partition_disagreement (ctx : Urm.Ctx.t) q ms =
  let snap = Urm_incr.Vcatalog.head (Urm_incr.Vcatalog.create ~ctx ~mappings:ms ()) in
  let deps = Urm_incr.State.query_deps snap q and want = query_deps_ref snap q in
  let units =
    List.map
      (fun (sq, w) -> (Urm.Reformulate.key sq, Urm.Answer.mass w))
      (Urm.Factorized.weighted_units ctx q ms)
  in
  let ref_units =
    List.map (fun (k, w) -> (k, Urm.Answer.mass w)) (weighted_units_ref ctx q ms)
  in
  if deps <> want then
    Some
      (Printf.sprintf "query_deps on %s: [%s], per mapping [%s]"
         (Urm.Query.to_string q) (String.concat "; " deps) (String.concat "; " want))
  else if units <> ref_units then
    Some
      (Printf.sprintf "weighted_units on %s: %d keys, per mapping %d"
         (Urm.Query.to_string q) (List.length units) (List.length ref_units))
  else None

let qcheck_per_partition =
  QCheck.Test.make
    ~name:"one reformulation per partition gives the per-mapping deps and units"
    ~count:500
    (QCheck.make QCheck.Gen.(pair query_gen bounded_mappings_gen))
    (fun (q, ms) ->
      match per_partition_disagreement (Test_core.ctx ()) q ms with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let test_per_partition_workload () =
  let p = Lazy.force workload in
  let excel = Urm_workload.Targets.excel in
  let ctx = Urm_workload.Pipeline.ctx p excel in
  let ms = Urm_workload.Pipeline.mappings p excel ~h:100 in
  List.iter
    (fun q ->
      match per_partition_disagreement ctx q ms with
      | None -> ()
      | Some msg -> Alcotest.fail msg)
    (Urm_workload.Queries.[ q1; q2; q3; q4; q5 ]
    @ List.map Urm_workload.Sweeps.selections [ 1; 2; 3; 4 ]
    @ List.map Urm_workload.Sweeps.self_joins [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* The partitioning memo ({!Urm.Ptree.shared}).  One context serves every
   case, so when a case looks its shape up the memo already holds entries
   from earlier cases, other constants and other mapping lists.  Each step
   reads a same-shape query over the head snapshot and compares the
   memoised partition with [Ptree.partition] (same lists, same order, same
   probabilities) and the memoised deps with the per-mapping reference. *)

let memo_ctx = lazy (Test_core.ctx ())

(* [q] with its selection constants replaced, cycling through [vs]. *)
let with_constants (q : Urm.Query.t) vs =
  let n = ref (-1) in
  let next () =
    incr n;
    List.nth vs (!n mod List.length vs)
  in
  Urm.Query.make ~name:q.name ~target:Test_core.target ~aliases:q.aliases
    ~selections:(List.map (fun (ta, _) -> (ta, next ())) q.selections)
    ~joins:q.joins ?projection:q.projection ?aggregate:q.aggregate
    ~group_by:q.group_by ()

let constant_gen =
  QCheck.Gen.(
    list_size (1 -- 3)
      (map s (oneofl [ "aaa"; "hk"; "456"; "Alice"; "HK"; "CN"; "zz" ])))

let partition_ids parts =
  List.map (List.map (fun m -> (m.Urm.Mapping.id, m.Urm.Mapping.prob))) parts

(* [None] when the memo agrees with the raw partition and the reference
   deps, and the lookups counted [hits] hits and [misses] misses. *)
let memo_disagreement (snap : Urm_incr.Vcatalog.snapshot) q ~hits ~misses =
  let ctx = snap.Urm_incr.Vcatalog.ctx and ms = snap.Urm_incr.Vcatalog.mappings in
  let h0, m0 = Urm.Ctx.partitioning_stats ctx in
  let got = Urm.Qsharing.partitions ctx q ms in
  let deps = Urm_incr.State.query_deps snap q in
  let h1, m1 = Urm.Ctx.partitioning_stats ctx in
  let want = Urm.Ptree.partition ctx.Urm.Ctx.target q ms in
  let want_deps = query_deps_ref snap q in
  if partition_ids got <> partition_ids want then
    Some
      (Printf.sprintf "partition of %s at epoch %d: %d parts, raw %d"
         (Urm.Query.to_string q) snap.Urm_incr.Vcatalog.epoch (List.length got)
         (List.length want))
  else if deps <> want_deps then
    Some
      (Printf.sprintf "deps of %s at epoch %d: [%s], per mapping [%s]"
         (Urm.Query.to_string q) snap.Urm_incr.Vcatalog.epoch
         (String.concat "; " deps) (String.concat "; " want_deps))
  else if (h1 - h0, m1 - m0) <> (hits, misses) then
    Some
      (Printf.sprintf "%s at epoch %d: %d hits, %d misses; expected %d, %d"
         (Urm.Query.to_string q) snap.Urm_incr.Vcatalog.epoch (h1 - h0) (m1 - m0)
         hits misses)
  else None

let qcheck_partitioning_memo =
  QCheck.Test.make
    ~name:"memoised partition and deps survive constants and mapping edits"
    ~count:300
    (QCheck.make
       QCheck.Gen.(pair (pair query_gen bounded_mappings_gen) (pair constant_gen constant_gen)))
    (fun ((q, ms), (c1, c2)) ->
      QCheck.assume (List.length ms >= 2);
      let ctx = Lazy.force memo_ctx in
      let vcat = Urm_incr.Vcatalog.create ~ctx ~mappings:ms () in
      let commit batch =
        match Urm_incr.Vcatalog.commit vcat batch with
        | Ok o -> o.Urm_incr.Vcatalog.snapshot
        | Error e -> failwith e
      in
      let first = List.hd ms and last = List.nth ms (List.length ms - 1) in
      let customer = Urm_relalg.Catalog.find ctx.Urm.Ctx.catalog "Customer" in
      let head = Urm_incr.Vcatalog.head vcat in
      (* A fresh list misses once (the partition) and the deps then hit;
         the same list under other constants hits twice. *)
      let steps =
        [
          (fun () -> (head, q, 1, 1));
          (fun () -> (head, with_constants q c1, 2, 0));
          (fun () ->
            ( commit
                [
                  Urm_incr.Mutation.Insert
                    { rel = "Customer"; row = Array.copy customer.Urm_relalg.Relation.rows.(0) };
                ],
              with_constants q c2,
              2,
              0 ));
          (fun () ->
            ( commit [ Urm_incr.Mutation.Reweight { mapping = first.Urm.Mapping.id; prob = 0.5 } ],
              with_constants q c2,
              1,
              1 ));
          (fun () ->
            ( commit [ Urm_incr.Mutation.Prune { mapping = last.Urm.Mapping.id } ],
              with_constants q c1,
              1,
              1 ));
          (fun () ->
            ( commit
                [
                  Urm_incr.Mutation.Add_mapping
                    { id = None; pairs = first.Urm.Mapping.pairs; prob = 0.25; score = 0.25 };
                ],
              q,
              1,
              1 ));
        ]
      in
      List.for_all
        (fun step ->
          let snap, q, hits, misses = step () in
          match memo_disagreement snap q ~hits ~misses with
          | None -> true
          | Some msg -> QCheck.Test.fail_report msg)
        steps)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_running_example;
    QCheck_alcotest.to_alcotest qcheck_possible_worlds;
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
    QCheck_alcotest.to_alcotest qcheck_per_partition;
    Alcotest.test_case
      "workload queries at h = 100: per-partition deps and units" `Quick
      test_per_partition_workload;
    QCheck_alcotest.to_alcotest qcheck_partitioning_memo;
  ]
