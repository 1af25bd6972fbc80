(* lib/anytime: the alias sampler, Wilson intervals, the budgeted
   Monte-Carlo estimator and its anytime top-k / threshold variants,
   differentially against the exact Basic algorithm on the running-example
   fixture, plus the synthetic huge-h mapping generator.

   Every sampled run here is deterministic from its seed, so the
   statistical assertions (coverage, convergence) are reproducible — a
   failure is a real regression, not sampling noise. *)

let seed = 2012

(* ------------------------------------------------------------------ *)
(* Alias table *)

let test_alias_frequencies () =
  let weights = [| 0.1; 0.2; 0.3; 0.4 |] in
  let table = Urm_util.Alias.create weights in
  let rng = Urm_util.Prng.create seed in
  let n = 100_000 in
  let counts = Array.make (Array.length weights) 0 in
  for _ = 1 to n do
    let i = Urm_util.Alias.draw table rng in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i w ->
      let freq = float_of_int counts.(i) /. float_of_int n in
      if abs_float (freq -. w) > 0.01 then
        Alcotest.failf "alias index %d: frequency %.4f, weight %.4f" i freq w)
    weights

let test_alias_unnormalised () =
  (* Weights needn't sum to 1 — the table normalises internally. *)
  let table = Urm_util.Alias.create [| 3.; 1. |] in
  let rng = Urm_util.Prng.create seed in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Urm_util.Alias.draw table rng = 0 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "3:1 split" true (abs_float (freq -. 0.75) < 0.01)

let test_alias_invalid () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "empty" true (raises (fun () -> Urm_util.Alias.create [||]));
  Alcotest.(check bool) "zero mass" true
    (raises (fun () -> Urm_util.Alias.create [| 0.; 0. |]));
  Alcotest.(check bool) "negative" true
    (raises (fun () -> Urm_util.Alias.create [| 0.5; -0.1 |]))

(* ------------------------------------------------------------------ *)
(* Normal quantile and Wilson intervals *)

let test_normal_quantile () =
  let check p expected =
    let z = Urm_util.Stats.normal_quantile p in
    if abs_float (z -. expected) > 2e-3 then
      Alcotest.failf "quantile %.4f: got %.5f, expected %.5f" p z expected
  in
  check 0.975 1.95996;
  check 0.995 2.57583;
  check 0.5 0.;
  check 0.025 (-1.95996);
  (* z_of_delta is the two-sided critical value *)
  let z = Urm_anytime.Estimator.z_of_delta 0.05 in
  Alcotest.(check bool) "z(0.05) ~ 1.96" true (abs_float (z -. 1.95996) < 2e-3)

let test_wilson_interval () =
  let z = 1.95996 in
  let lo, hi = Urm_util.Stats.wilson_interval ~positives:50 ~n:100 ~z in
  Alcotest.(check bool) "centred near 0.5" true
    (abs_float (lo -. 0.404) < 0.005 && abs_float (hi -. 0.596) < 0.005);
  let lo, hi = Urm_util.Stats.wilson_interval ~positives:0 ~n:100 ~z in
  Alcotest.(check bool) "zero successes starts at 0" true (lo <= 1e-12 && hi > 0.);
  let lo, hi = Urm_util.Stats.wilson_interval ~positives:100 ~n:100 ~z in
  Alcotest.(check bool) "all successes ends at 1" true (hi >= 1. -. 1e-12 && lo < 1.);
  let w n =
    let lo, hi = Urm_util.Stats.wilson_interval ~positives:(n / 2) ~n ~z in
    hi -. lo
  in
  Alcotest.(check bool) "width shrinks with n" true (w 10_000 < w 100 && w 100 < w 10)

(* ------------------------------------------------------------------ *)
(* Report interval JSON round-trip *)

let tuple vs = Array.of_list (List.map (fun v -> Urm_relalg.Value.Str v) vs)

let make_report intervals =
  let answer = Urm.Answer.create [ "Person.phone" ] in
  List.iter (fun (t, _) -> Urm.Answer.add answer t 0.5) intervals;
  Urm.Report.make ~intervals ~answer
    ~timings:{ Urm.Report.rewrite = 0.; plan = 0.; evaluate = 0.; aggregate = 0. }
    ~source_operators:0 ~rows_produced:0 ~groups:0 ()

let test_interval_roundtrip () =
  let intervals =
    [ (tuple [ "123" ], (0.1, 0.9)); (tuple [ "456" ], (0.25, 0.75)) ]
  in
  let r = make_report intervals in
  let json =
    Urm_util.Json.parse_exn (Urm_util.Json.to_string (Urm.Report.to_json r))
  in
  match Urm.Report.intervals_of_json json with
  | None -> Alcotest.fail "intervals lost in round-trip"
  | Some back ->
    Alcotest.(check int) "count" 2 (List.length back);
    List.iter
      (fun (t, (lo, hi)) ->
        match
          List.find_opt (fun (t', _) -> compare t' t = 0) back
        with
        | None -> Alcotest.fail "tuple lost in round-trip"
        | Some (_, (lo', hi')) ->
          Alcotest.(check (float 1e-12)) "lo" lo lo';
          Alcotest.(check (float 1e-12)) "hi" hi hi')
      intervals

let test_interval_absent_when_none () =
  (* Reports without intervals must render exactly as before the field
     existed (the exact engines' determinism contract), and parse back to
     [None]. *)
  let answer = Urm.Answer.create [ "Person.phone" ] in
  let r =
    Urm.Report.make ~answer
      ~timings:{ Urm.Report.rewrite = 0.; plan = 0.; evaluate = 0.; aggregate = 0. }
      ~source_operators:0 ~rows_produced:0 ~groups:0 ()
  in
  let json = Urm.Report.to_json r in
  Alcotest.(check bool) "no intervals member" true
    (Urm_util.Json.member "intervals" json = None);
  Alcotest.(check bool) "parses to None" true
    (Urm.Report.intervals_of_json json = None)

(* ------------------------------------------------------------------ *)
(* Estimator vs the exact Basic algorithm on the fixture *)

let fixture () =
  (Test_extensions.ctx (), Test_extensions.mappings ())

let exact_answer ctx q ms = (Urm.Basic.run ctx q ms).Urm.Report.answer

let test_estimator_covers_exact () =
  let ctx, ms = fixture () in
  let q = Test_extensions.phone_where_addr "aaa" in
  let exact = exact_answer ctx q ms in
  let budget =
    {
      Urm_anytime.Budget.default with
      Urm_anytime.Budget.max_samples = Some 20_000;
      delta = 0.001;
      epsilon = 0.;
    }
  in
  let r = Urm_anytime.Estimator.run ~seed ~budget ctx q ms in
  Alcotest.(check int) "spent the whole budget" 20_000
    r.Urm_anytime.Estimator.samples;
  let intervals =
    Option.get r.Urm_anytime.Estimator.report.Urm.Report.intervals
  in
  Alcotest.(check int) "all exact tuples observed"
    (Urm.Answer.size exact) (List.length intervals);
  List.iter
    (fun (t, (lo, hi)) ->
      let p = Urm.Answer.prob_of exact t in
      if not (lo <= p && p <= hi) then
        Alcotest.failf "exact %.4f outside [%.4f, %.4f]" p lo hi;
      let est =
        Urm.Answer.prob_of r.Urm_anytime.Estimator.report.Urm.Report.answer t
      in
      if abs_float (est -. p) > 0.02 then
        Alcotest.failf "estimate %.4f too far from exact %.4f" est p)
    intervals;
  let nlo, nhi = r.Urm_anytime.Estimator.null_interval in
  let np = Urm.Answer.null_prob exact in
  Alcotest.(check bool) "null prob covered" true (nlo <= np && np <= nhi)

let test_estimator_width_convergence () =
  let ctx, ms = fixture () in
  let q = Test_extensions.phone_where_addr "aaa" in
  let budget =
    {
      Urm_anytime.Budget.default with
      Urm_anytime.Budget.max_samples = Some 1_000_000;
      delta = 0.05;
      epsilon = 0.05;
    }
  in
  let r = Urm_anytime.Estimator.run ~seed ~budget ctx q ms in
  Alcotest.(check bool) "converged" true
    (r.Urm_anytime.Estimator.stop_reason = Urm_anytime.Budget.Converged);
  List.iter
    (fun (_, (lo, hi)) ->
      Alcotest.(check bool) "width within 2eps" true (hi -. lo <= 0.1 +. 1e-9))
    (Option.get r.Urm_anytime.Estimator.report.Urm.Report.intervals)

let test_estimator_deterministic () =
  let ctx, ms = fixture () in
  let q = Test_extensions.phone_where_addr "aaa" in
  let budget =
    {
      Urm_anytime.Budget.default with
      Urm_anytime.Budget.max_samples = Some 5_000;
    }
  in
  let render () =
    let r = Urm_anytime.Estimator.run ~seed ~budget ctx q ms in
    Urm_util.Json.to_string
      (Urm.Report.to_json ~volatile:false r.Urm_anytime.Estimator.report)
  in
  Alcotest.(check string) "same seed, same report" (render ()) (render ())

(* ------------------------------------------------------------------ *)
(* Anytime top-k and threshold vs exact *)

(* Exact probabilities on q = phone_where_addr "aaa":
   "456" -> 0.8, "123" -> 0.5, "789" -> 0.2. *)

let test_topk_matches_exact () =
  let ctx, ms = fixture () in
  let q = Test_extensions.phone_where_addr "aaa" in
  let exact = exact_answer ctx q ms in
  let k = 2 in
  let exact_top =
    List.map fst (Urm.Answer.top_k exact k)
    |> List.map (fun t -> Array.map Urm_relalg.Value.to_string t |> Array.to_list)
    |> List.sort compare
  in
  let budget =
    {
      Urm_anytime.Budget.default with
      Urm_anytime.Budget.max_samples = Some 500_000;
      delta = 0.001;  (* δ → 0: the separation test must hold at 99.9% *)
    }
  in
  let r = Urm_anytime.Topk.run ~seed ~budget ~k ctx q ms in
  Alcotest.(check bool) "stopped early (converged)" true
    r.Urm_anytime.Topk.stopped_early;
  let got =
    List.map fst (Urm.Answer.to_list r.Urm_anytime.Topk.report.Urm.Report.answer)
    |> List.map (fun t -> Array.map Urm_relalg.Value.to_string t |> Array.to_list)
    |> List.sort compare
  in
  Alcotest.(check (list (list string))) "top-k sets agree" exact_top got

let test_threshold_matches_exact () =
  let ctx, ms = fixture () in
  let q = Test_extensions.phone_where_addr "aaa" in
  let exact = exact_answer ctx q ms in
  let tau = 0.4 in
  let exact_in =
    List.filter_map
      (fun (t, p) ->
        if p >= tau then
          Some (Array.map Urm_relalg.Value.to_string t |> Array.to_list)
        else None)
      (Urm.Answer.to_list exact)
    |> List.sort compare
  in
  let budget =
    {
      Urm_anytime.Budget.default with
      Urm_anytime.Budget.max_samples = Some 500_000;
      delta = 0.001;
    }
  in
  let r = Urm_anytime.Threshold.run ~seed ~budget ~tau ctx q ms in
  Alcotest.(check bool) "stopped early (converged)" true
    r.Urm_anytime.Threshold.stopped_early;
  Alcotest.(check int) "nothing undecided" 0 r.Urm_anytime.Threshold.undecided;
  let got =
    List.map fst
      (Urm.Answer.to_list r.Urm_anytime.Threshold.report.Urm.Report.answer)
    |> List.map (fun t -> Array.map Urm_relalg.Value.to_string t |> Array.to_list)
    |> List.sort compare
  in
  Alcotest.(check (list (list string))) "threshold sets agree" exact_in got

let test_early_stop_agrees_with_full_run () =
  (* A budget-starved threshold run may leave tuples undecided, but every
     tuple it does decide "in" must also be in the converged run's answer
     (same seed ⇒ the short run's draws are a prefix of the long run's). *)
  let ctx, ms = fixture () in
  let q = Test_extensions.phone_where_addr "aaa" in
  let tau = 0.4 in
  let run cap =
    Urm_anytime.Threshold.run ~seed
      ~budget:
        {
          Urm_anytime.Budget.default with
          Urm_anytime.Budget.max_samples = Some cap;
          delta = 0.001;
        }
      ~tau ctx q ms
  in
  let short = run 96 and long = run 500_000 in
  Alcotest.(check bool) "short run exhausted its budget" true
    (short.Urm_anytime.Threshold.stop_reason
    = Urm_anytime.Budget.Samples_exhausted);
  Alcotest.(check bool) "long run converged" true
    long.Urm_anytime.Threshold.stopped_early;
  let long_answer = long.Urm_anytime.Threshold.report.Urm.Report.answer in
  List.iter
    (fun (t, _) ->
      Alcotest.(check bool) "decided tuple also in converged answer" true
        (Urm.Answer.prob_of long_answer t > 0.))
    (Urm.Answer.to_list short.Urm_anytime.Threshold.report.Urm.Report.answer)

(* ------------------------------------------------------------------ *)
(* qcheck: interval coverage on random mapping distributions *)

(* Same Person selection as the fixture query, but over Test_core's target
   schema — Test_differential's generated mappings reference Test_core's
   catalog (Nation, C_Order), so the exact baseline must run there too. *)
let core_query addr =
  Urm.Query.make ~name:("q" ^ addr) ~target:Test_core.target
    ~aliases:[ ("Person", "Person") ]
    ~selections:[ (Urm.Query.at "Person" "addr", Urm_relalg.Value.Str addr) ]
    ~projection:[ Urm.Query.at "Person" "phone" ]
    ()

let qcheck_coverage =
  QCheck.Test.make ~count:15 ~name:"estimator intervals cover exact basic"
    (QCheck.make
       QCheck.Gen.(
         pair Test_differential.mappings_gen (oneofl [ "aaa"; "hk" ])))
    (fun (ms, addr) ->
      QCheck.assume (ms <> []);
      QCheck.assume (Urm.Mapping.total_prob ms > 0.999);
      let ctx = Test_core.ctx () in
      let q = core_query addr in
      let exact = exact_answer ctx q ms in
      let budget =
        {
          Urm_anytime.Budget.default with
          Urm_anytime.Budget.max_samples = Some 8_000;
          delta = 0.0001;  (* wide intervals: a coverage miss at this δ and
                              fixed seed is a bug, not noise *)
          epsilon = 0.;
        }
      in
      let r = Urm_anytime.Estimator.run ~seed ~budget ctx q ms in
      let intervals =
        Option.get r.Urm_anytime.Estimator.report.Urm.Report.intervals
      in
      List.for_all
        (fun (t, (lo, hi)) ->
          let p = Urm.Answer.prob_of exact t in
          lo -. 1e-9 <= p && p <= hi +. 1e-9)
        intervals
      &&
      let nlo, nhi = r.Urm_anytime.Estimator.null_interval in
      let np = Urm.Answer.null_prob exact in
      nlo -. 1e-9 <= np && np <= nhi +. 1e-9)

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
  (* End-to-end at a fixture-sized h: sample a synthetic set through the
     estimator and check the intervals cover the exact Basic answer over
     the same set. *)
  let ms = Urm.Mapgen.synthetic ~seed ~h:200 synthetic_candidates in
  let ctx = Test_extensions.ctx () in
  let q = Test_extensions.phone_where_addr "aaa" in
  let exact = exact_answer ctx q ms in
  let budget =
    {
      Urm_anytime.Budget.default with
      Urm_anytime.Budget.max_samples = Some 20_000;
      delta = 0.001;
      epsilon = 0.;
    }
  in
  let r = Urm_anytime.Estimator.run ~seed ~budget ctx q ms in
  List.iter
    (fun (t, (lo, hi)) ->
      let p = Urm.Answer.prob_of exact t in
      if not (lo -. 1e-9 <= p && p <= hi +. 1e-9) then
        Alcotest.failf "synthetic: exact %.4f outside [%.4f, %.4f]" p lo hi)
    (Option.get r.Urm_anytime.Estimator.report.Urm.Report.intervals)

let suite =
  [
    Alcotest.test_case "alias: frequencies match weights" `Quick
      test_alias_frequencies;
    Alcotest.test_case "alias: unnormalised weights" `Quick test_alias_unnormalised;
    Alcotest.test_case "alias: invalid inputs" `Quick test_alias_invalid;
    Alcotest.test_case "normal quantile (Acklam)" `Quick test_normal_quantile;
    Alcotest.test_case "wilson interval shape" `Quick test_wilson_interval;
    Alcotest.test_case "report intervals round-trip" `Quick test_interval_roundtrip;
    Alcotest.test_case "report intervals absent when None" `Quick
      test_interval_absent_when_none;
    Alcotest.test_case "estimator covers exact basic" `Quick
      test_estimator_covers_exact;
    Alcotest.test_case "estimator width convergence" `Quick
      test_estimator_width_convergence;
    Alcotest.test_case "estimator deterministic from seed" `Quick
      test_estimator_deterministic;
    Alcotest.test_case "anytime top-k matches exact at small delta" `Quick
      test_topk_matches_exact;
    Alcotest.test_case "anytime threshold matches exact at small delta" `Quick
      test_threshold_matches_exact;
    Alcotest.test_case "early stop agrees with full run" `Quick
      test_early_stop_agrees_with_full_run;
    QCheck_alcotest.to_alcotest qcheck_coverage;
    Alcotest.test_case "synthetic mapgen invariants" `Quick test_synthetic_mapgen;
    Alcotest.test_case "synthetic set through the estimator" `Quick
      test_synthetic_through_estimator;
  ]
