(* Anytime approximate evaluation (Urm.Approx): one bounded exact pass,
   stopped on its deterministic bounds, checked on both engines against
   the exact interpreted Basic answer — every interval must contain the
   exact probability with no slack — plus the synthetic huge-h mapping
   generator. *)

let seed = 2012

(* ------------------------------------------------------------------ *)
(* The bounded pass vs the exact Basic algorithm on the fixture *)

module A = Urm.Approx

let both_engines mk = Test_differential.both_engines mk

(* The fixture on both engines, interpreted first. *)
let fixture_ctxs () =
  let cat = Test_extensions.catalog () in
  both_engines (fun engine ->
      Urm.Ctx.make ~engine ~catalog:cat ~source:Test_extensions.source
        ~target:Test_extensions.target ())

let exact_answer ctx q ms = (Urm.Basic.run ctx q ms).Urm.Report.answer

(* Every reported interval, θ's included, contains the exact probability
   with no slack; an estimate also bounds every tuple it never saw by
   [unvisited]. *)
let covers exact (r : A.result) =
  let inside p (lo, hi) = lo <= p && p <= hi in
  List.for_all (fun (t, b) -> inside (Urm.Answer.prob_of exact t) b) r.A.intervals
  && inside (Urm.Answer.null_prob exact) r.A.null_interval
  &&
  match r.A.mode with
  | A.Estimate _ ->
    List.for_all
      (fun (t, p) -> List.mem_assoc t r.A.intervals || p <= r.A.unvisited)
      (Urm.Answer.to_list exact)
  | A.Top _ | A.Above _ -> true

let answer_bytes a = Urm_util.Json.to_string (Urm.Answer.to_json a)

(* Exact probabilities on q = phone_where_addr "aaa":
   "456" -> 0.8, "123" -> 0.5, "789" -> 0.2. *)
let q_aaa () = Test_extensions.phone_where_addr "aaa"

let test_estimator_covers_exact () =
  let ms = Test_extensions.mappings () and q = q_aaa () in
  let ctxs = fixture_ctxs () in
  let exact = exact_answer (snd (List.hd ctxs)) q ms in
  List.iter
    (fun (engine, ctx) ->
      List.iter
        (fun epsilon ->
          let r = A.run (A.Estimate epsilon) ctx q ms in
          if not (covers exact r) then
            Alcotest.failf "%s, ε = %g: an interval misses the exact answer" engine
              epsilon)
        [ 0.; 0.05; 0.15; 0.3; 0.5 ])
    ctxs

let test_estimator_width_convergence () =
  let ms = Test_extensions.mappings () and q = q_aaa () in
  List.iter
    (fun (engine, ctx) ->
      let r = A.run (A.Estimate 0.1) ctx q ms in
      Alcotest.(check string) (engine ^ ": converged") "converged"
        (A.stop_reason_name r.A.stop_reason);
      Alcotest.(check bool) (engine ^ ": stopped early") true r.A.stopped_early;
      let width (lo, hi) = hi -. lo in
      List.iter
        (fun b ->
          Alcotest.(check bool) (engine ^ ": width within 2ε") true (width b <= 0.2))
        (r.A.null_interval :: List.map snd r.A.intervals);
      Alcotest.(check bool) (engine ^ ": unseen within 2ε") true (r.A.unvisited <= 0.2))
    (fixture_ctxs ())

let test_same_request_same_bytes () =
  let ms = Test_extensions.mappings () and q = q_aaa () in
  List.iter
    (fun (engine, ctx) ->
      List.iter
        (fun mode ->
          let render () =
            Urm_util.Json.to_string (Urm_util.Json.Obj (A.fields (A.run mode ctx q ms)))
          in
          Alcotest.(check string) (engine ^ ": same bytes") (render ()) (render ()))
        [ A.Estimate 0.15; A.Top 2; A.Above 0.4 ])
    (fixture_ctxs ())

(* [limit] keeps the first tuples of the full interval list, bounds and
   order included, and leaves the answer itself whole. *)
let test_limit_is_a_prefix () =
  let ms = Test_extensions.mappings () and q = q_aaa () in
  List.iter
    (fun (engine, ctx) ->
      List.iter
        (fun mode ->
          let full = A.run mode ctx q ms in
          List.iter
            (fun limit ->
              let r = A.run ~limit mode ctx q ms in
              Alcotest.(check bool)
                (Printf.sprintf "%s, limit %d: prefix" engine limit)
                true
                (r.A.intervals = List.filteri (fun i _ -> i < limit) full.A.intervals);
              Alcotest.(check string) (engine ^ ": same answer")
                (answer_bytes full.A.report.Urm.Report.answer)
                (answer_bytes r.A.report.Urm.Report.answer))
            [ 0; 1; 2; 1000 ])
        [ A.Estimate 0.; A.Estimate 0.15; A.Top 2; A.Above 0.4 ])
    (fixture_ctxs ())

let tuple_set answer =
  List.map
    (fun (t, _) -> Array.to_list (Array.map Urm_relalg.Value.to_string t))
    (Urm.Answer.to_list answer)
  |> List.sort compare

let test_topk_matches_exact () =
  let ms = Test_extensions.mappings () and q = q_aaa () in
  let ctxs = fixture_ctxs () in
  let exact = exact_answer (snd (List.hd ctxs)) q ms in
  List.iter
    (fun (engine, ctx) ->
      List.iter
        (fun k ->
          let r = A.run (A.Top k) ctx q ms in
          let label = Printf.sprintf "%s, k = %d" engine k in
          Alcotest.(check string) (label ^ ": converged") "converged"
            (A.stop_reason_name r.A.stop_reason);
          Alcotest.(check string) (label ^ ": Topk's answer")
            (answer_bytes (Urm.Topk.run ~k ctx q ms).Urm.Topk.report.Urm.Report.answer)
            (answer_bytes r.A.report.Urm.Report.answer);
          Alcotest.(check (list (list string))) (label ^ ": exact top-k set")
            (tuple_set (Urm.Topk.select ~k exact))
            (tuple_set r.A.report.Urm.Report.answer))
        [ 1; 2; 3 ])
    ctxs

let test_threshold_matches_exact () =
  let ms = Test_extensions.mappings () and q = q_aaa () in
  let ctxs = fixture_ctxs () in
  let exact = exact_answer (snd (List.hd ctxs)) q ms in
  List.iter
    (fun (engine, ctx) ->
      List.iter
        (fun tau ->
          let r = A.run (A.Above tau) ctx q ms in
          let label = Printf.sprintf "%s, τ = %g" engine tau in
          Alcotest.(check string) (label ^ ": converged") "converged"
            (A.stop_reason_name r.A.stop_reason);
          Alcotest.(check int) (label ^ ": nothing undecided") 0 r.A.undecided;
          Alcotest.(check string) (label ^ ": Threshold's answer")
            (answer_bytes
               (Urm.Threshold.run ~tau ctx q ms).Urm.Threshold.report.Urm.Report.answer)
            (answer_bytes r.A.report.Urm.Report.answer);
          Alcotest.(check (list (list string))) (label ^ ": exact threshold set")
            (tuple_set (Urm.Threshold.select ~tau exact))
            (tuple_set r.A.report.Urm.Report.answer))
        [ 0.1; 0.4; 0.6 ])
    ctxs

let test_early_stop_agrees_with_full_run () =
  (* A deadline that has passed by the first check stops the pass after
     its first unit: every tuple that run decides "in" is in the full
     run's answer, and its intervals hold the full run's probabilities. *)
  let ms = Test_extensions.mappings () and q = q_aaa () in
  List.iter
    (fun (engine, ctx) ->
      List.iter
        (fun mode ->
          let short = A.run ~deadline:1e-9 mode ctx q ms in
          let full = A.run mode ctx q ms in
          let exact = exact_answer ctx q ms in
          Alcotest.(check string) (engine ^ ": deadline reached") "deadline-reached"
            (A.stop_reason_name short.A.stop_reason);
          Alcotest.(check bool) (engine ^ ": stopped early") true short.A.stopped_early;
          Alcotest.(check bool) (engine ^ ": short run covers exact") true
            (covers exact short);
          match mode with
          | A.Above _ ->
            List.iter
              (fun (t, _) ->
                Alcotest.(check bool) (engine ^ ": decided tuple in full answer") true
                  (List.mem_assoc t full.A.intervals))
              short.A.intervals
          | A.Estimate _ | A.Top _ -> ())
        [ A.Estimate 0.; A.Above 0.3 ])
    (fixture_ctxs ())

(* ------------------------------------------------------------------ *)
(* qcheck: interval coverage on random queries and mapping sets *)

let mode_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun e -> A.Estimate e) (oneofl [ 0.; 0.02; 0.1; 0.3 ]);
        map (fun k -> A.Top k) (1 -- 4);
        map (fun tau -> A.Above tau) (oneofl [ 0.05; 0.2; 0.5; 0.9 ]);
      ])

(* Every interval of every mode, θ's included, contains interpreted
   basic's probability on both engines; a converged top-k or threshold
   answer renders Topk's or Threshold's bytes, and ε = 0 renders basic's.
   SUM keys may differ in their last bit across engines (ROADMAP item 4),
   so SUM queries are left to the differential suite. *)
let qcheck_coverage =
  QCheck.Test.make ~count:60 ~name:"estimator intervals cover exact basic"
    (QCheck.make
       QCheck.Gen.(
         triple Test_differential.query_gen
           (Test_differential.mappings_gen_sized (1 -- 12))
           mode_gen))
    (fun (q, ms, mode) ->
      QCheck.assume (ms <> []);
      QCheck.assume
        (match q.Urm.Query.aggregate with Some (Urm.Query.Sum _) -> false | _ -> true);
      let cat = Test_core.catalog () in
      let ctxs =
        both_engines (fun engine ->
            Urm.Ctx.make ~engine ~catalog:cat ~source:Test_core.source
              ~target:Test_core.target ())
      in
      let exact = exact_answer (snd (List.hd ctxs)) q ms in
      List.for_all
        (fun (engine, ctx) ->
          let r = A.run mode ctx q ms in
          let got = answer_bytes r.A.report.Urm.Report.answer in
          let expected =
            match mode with
            | A.Estimate 0. -> Some (answer_bytes exact)
            | A.Estimate _ -> None
            | A.Top k -> Some (answer_bytes (Urm.Topk.run ~k ctx q ms).Urm.Topk.report.Urm.Report.answer)
            | A.Above tau ->
              Some
                (answer_bytes
                   (Urm.Threshold.run ~tau ctx q ms).Urm.Threshold.report.Urm.Report.answer)
          in
          (covers exact r
          || QCheck.Test.fail_reportf "%s on %s: an interval misses the exact answer"
               engine q.Urm.Query.name)
          && (Option.fold ~none:true ~some:(String.equal got) expected
             || QCheck.Test.fail_reportf "%s on %s: answer differs from the exact pass's"
                  engine q.Urm.Query.name))
        ctxs)

(* ------------------------------------------------------------------ *)
(* Synthetic huge-h mapping generation *)

let synthetic_candidates =
  [
    ("Person.pname", "Customer.cname", 0.9);
    ("Person.pname", "Customer.mobile", 0.2);
    ("Person.phone", "Customer.ophone", 0.8);
    ("Person.phone", "Customer.hphone", 0.6);
    ("Person.phone", "Customer.mobile", 0.5);
    ("Person.addr", "Customer.oaddr", 0.7);
    ("Person.addr", "Customer.haddr", 0.65);
    ("Person.nation", "Customer.nid", 0.4);
    ("Person.gender", "Customer.nid", 0.3);
  ]
  |> List.map (fun (dst, src, score) -> { Urm_matcher.Match.src; dst; score })

let test_synthetic_mapgen () =
  let h = 40 in
  let ms = Urm.Mapgen.synthetic ~seed ~h synthetic_candidates in
  Alcotest.(check bool) "returns a non-trivial set" true (List.length ms > 10);
  Alcotest.(check bool) "at most h" true (List.length ms <= h);
  Alcotest.(check (float 1e-9)) "probabilities sum to 1" 1.
    (Urm.Mapping.total_prob ms);
  (* structurally distinct *)
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j && Urm.Mapping.same_correspondences a b then
            Alcotest.failf "mappings %d and %d coincide" i j)
        ms)
    ms;
  (* deterministic from the seed *)
  let ms' = Urm.Mapgen.synthetic ~seed ~h synthetic_candidates in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same pairs" true (Urm.Mapping.same_correspondences a b);
      Alcotest.(check (float 1e-12)) "same prob" a.Urm.Mapping.prob b.Urm.Mapping.prob)
    ms ms';
  (* Greedy rank-1 head: the best-scoring one-to-one matching comes first.
     nation and gender compete for the single Customer.nid source, so the
     greedy matching covers 4 of the 5 targets. *)
  match ms with
  | best :: _ ->
    Alcotest.(check int) "head covers all 1:1-satisfiable targets" 4
      (Urm.Mapping.size best)
  | [] -> Alcotest.fail "empty synthetic set"

let test_synthetic_through_estimator () =
  (* End-to-end at a fixture-sized h: a synthetic set through the bounded
     estimate, whose intervals must cover the exact Basic answer over the
     same set. *)
  let ms = Urm.Mapgen.synthetic ~seed ~h:200 synthetic_candidates in
  let q = q_aaa () in
  let ctxs = fixture_ctxs () in
  let exact = exact_answer (snd (List.hd ctxs)) q ms in
  List.iter
    (fun (engine, ctx) ->
      let r = A.run (A.Estimate 0.05) ctx q ms in
      Alcotest.(check bool) (engine ^ ": synthetic intervals cover exact") true
        (covers exact r))
    ctxs

let suite =
  [
    Alcotest.test_case "estimator covers exact basic" `Quick
      test_estimator_covers_exact;
    Alcotest.test_case "estimator width convergence" `Quick
      test_estimator_width_convergence;
    Alcotest.test_case "same request renders the same bytes" `Quick
      test_same_request_same_bytes;
    Alcotest.test_case "a limit bounds a prefix of the intervals" `Quick
      test_limit_is_a_prefix;
    Alcotest.test_case "anytime top-k matches exact top-k" `Quick
      test_topk_matches_exact;
    Alcotest.test_case "anytime threshold matches exact threshold" `Quick
      test_threshold_matches_exact;
    Alcotest.test_case "early stop agrees with full run" `Quick
      test_early_stop_agrees_with_full_run;
    QCheck_alcotest.to_alcotest qcheck_coverage;
    Alcotest.test_case "synthetic mapgen invariants" `Quick test_synthetic_mapgen;
    Alcotest.test_case "synthetic set through the estimator" `Quick
      test_synthetic_through_estimator;
  ]
