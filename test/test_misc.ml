(* Smaller surfaces: algorithm dispatch, reports, experiment tables,
   matcher pruning knobs, pipeline conveniences. *)

let test_algorithm_names () =
  Alcotest.(check string) "basic" "basic" (Urm.Algorithms.name Urm.Algorithms.Basic);
  Alcotest.(check string) "e-mqo" "e-MQO" (Urm.Algorithms.name Urm.Algorithms.Emqo);
  Alcotest.(check string) "osharing sef" "o-sharing/SEF"
    (Urm.Algorithms.name (Urm.Algorithms.Osharing Urm.Eunit.Sef));
  Alcotest.(check string) "topk" "top-5/SNF"
    (Urm.Algorithms.name (Urm.Algorithms.Topk (5, Urm.Eunit.Snf)));
  Alcotest.(check int) "seven exact algorithms" 7 (List.length Urm.Algorithms.exact)

let test_report_total () =
  let t = { Urm.Report.rewrite = 0.1; plan = 0.2; evaluate = 0.3; aggregate = 0.4 } in
  Alcotest.(check (float 1e-9)) "total" 1.0 (Urm.Report.total t);
  Alcotest.(check (float 1e-9)) "zero" 0. (Urm.Report.total Urm.Report.zero_timings)

let test_experiment_table_pp () =
  let table =
    {
      Urm_workload.Experiments.Table.id = "t";
      title = "demo";
      headers = [ "a"; "long-header" ];
      rows = [ [ "1"; "2" ]; [ "333"; "4" ] ];
      notes = [ "a note" ];
    }
  in
  let text = Format.asprintf "%a" Urm_workload.Experiments.Table.pp table in
  Alcotest.(check bool) "has title" true
    (String.length text > 0
    && String.length (String.concat "" (String.split_on_char 'd' text))
       < String.length text (* contains 'd' from demo *));
  let lines = String.split_on_char '\n' text in
  Alcotest.(check bool) "5+ lines" true (List.length lines >= 5)

let test_experiments_registry () =
  Alcotest.(check int) "18 experiments" 18 (List.length Urm_workload.Experiments.all);
  match Urm_workload.Experiments.run_by_id Urm_workload.Experiments.quick "zzz" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown id accepted"

let test_matcher_per_attr_cap () =
  let target =
    Urm_relalg.Schema.make "T"
      [ ("PO", [ ("telephone", Urm_relalg.Schema.TStr) ]) ]
  in
  let all =
    Urm_matcher.Match.candidates ~threshold:0.1 ~slack:1.0 ~per_attr:100
      ~source:Urm_tpch.Gen.schema ~target ()
  in
  let capped =
    Urm_matcher.Match.candidates ~threshold:0.1 ~slack:1.0 ~per_attr:2
      ~source:Urm_tpch.Gen.schema ~target ()
  in
  Alcotest.(check bool) "cap reduces" true (List.length capped <= 2);
  Alcotest.(check bool) "uncapped has more" true (List.length all > List.length capped);
  (* capped keeps the best-scoring candidates *)
  match (all, capped) with
  | best :: _, kept :: _ ->
    Alcotest.(check (float 1e-9)) "same best" best.Urm_matcher.Match.score
      kept.Urm_matcher.Match.score
  | _ -> Alcotest.fail "empty candidates"

let test_matcher_slack () =
  let target =
    Urm_relalg.Schema.make "T"
      [ ("PO", [ ("telephone", Urm_relalg.Schema.TStr) ]) ]
  in
  let tight =
    Urm_matcher.Match.candidates ~threshold:0.1 ~slack:0.01 ~per_attr:100
      ~source:Urm_tpch.Gen.schema ~target ()
  in
  let loose =
    Urm_matcher.Match.candidates ~threshold:0.1 ~slack:1.0 ~per_attr:100
      ~source:Urm_tpch.Gen.schema ~target ()
  in
  Alcotest.(check bool) "tight ⊆ loose" true (List.length tight <= List.length loose);
  (* every tight candidate is within slack of the best *)
  match tight with
  | best :: _ ->
    List.iter
      (fun c ->
        Alcotest.(check bool) "within slack" true
          (c.Urm_matcher.Match.score >= best.Urm_matcher.Match.score -. 0.01))
      tight
  | [] -> Alcotest.fail "no tight candidates"

let test_pipeline_run_wrapper () =
  let p = Urm_workload.Pipeline.create ~seed:3 ~scale:0.01 () in
  let target, q = Urm_workload.Queries.by_name "Q1" in
  let r1 = Urm_workload.Pipeline.run p Urm.Algorithms.Ebasic ~query:q ~target ~h:5 in
  let ctx = Urm_workload.Pipeline.ctx p target in
  let ms = Urm_workload.Pipeline.mappings p target ~h:5 in
  let r2 = Urm.Algorithms.run Urm.Algorithms.Ebasic ctx q ms in
  Alcotest.(check bool) "wrapper = manual" true
    (Urm.Answer.equal r1.Urm.Report.answer r2.Urm.Report.answer);
  Alcotest.(check bool) "seed/scale accessors" true
    (Urm_workload.Pipeline.seed p = 3 && Urm_workload.Pipeline.scale p = 0.01)

let test_mapping_pp_and_query_pp () =
  let m =
    Urm.Mapping.make ~id:7 ~prob:0.25 ~score:1.5 [ ("T.a", "S.x"); ("T.b", "S.y") ]
  in
  let text = Format.asprintf "%a" Urm.Mapping.pp m in
  Alcotest.(check bool) "mentions id" true
    (String.split_on_char '7' text |> List.length > 1);
  let _, q4 = Urm_workload.Queries.by_name "Q4" in
  let qtext = Urm.Query.to_string q4 in
  Alcotest.(check bool) "query pp nonempty" true (String.length qtext > 20)

let test_stopwatch () =
  let sw = Urm_util.Timer.Stopwatch.create () in
  Alcotest.(check (float 1e-9)) "fresh" 0. (Urm_util.Timer.Stopwatch.elapsed sw);
  Urm_util.Timer.Stopwatch.start sw;
  Alcotest.check_raises "double start"
    (Invalid_argument "Stopwatch.start: already running") (fun () ->
      Urm_util.Timer.Stopwatch.start sw);
  Urm_util.Timer.Stopwatch.stop sw;
  Alcotest.check_raises "double stop" (Invalid_argument "Stopwatch.stop: not running")
    (fun () -> Urm_util.Timer.Stopwatch.stop sw);
  let t1 = Urm_util.Timer.Stopwatch.elapsed sw in
  Alcotest.(check bool) "non-negative" true (t1 >= 0.);
  (* accumulates across runs *)
  Urm_util.Timer.Stopwatch.start sw;
  ignore (Sys.opaque_identity (List.init 1000 (fun i -> i * i)));
  Urm_util.Timer.Stopwatch.stop sw;
  Alcotest.(check bool) "accumulated" true (Urm_util.Timer.Stopwatch.elapsed sw >= t1);
  Urm_util.Timer.Stopwatch.reset sw;
  Alcotest.(check (float 1e-9)) "reset" 0. (Urm_util.Timer.Stopwatch.elapsed sw)

let test_timer_repeat () =
  let calls = ref 0 in
  let mean = Urm_util.Timer.repeat ~warmup:2 ~runs:3 (fun () -> incr calls) in
  Alcotest.(check int) "warmup + runs" 5 !calls;
  Alcotest.(check bool) "mean non-negative" true (mean >= 0.)

let test_relation_pp_truncates () =
  let rel =
    Urm_relalg.Relation.create ~cols:[ "x" ]
      (List.init 20 (fun j -> [| Urm_relalg.Value.Int j |]))
  in
  let text = Format.asprintf "%a" (Urm_relalg.Relation.pp ~max_rows:3) rel in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions more rows" true (contains text "17 more")

let test_value_pp () =
  let check v expected =
    Alcotest.(check string) expected expected (Urm_relalg.Value.to_string v)
  in
  check Urm_relalg.Value.Null "NULL";
  check (Urm_relalg.Value.Int (-3)) "-3";
  check (Urm_relalg.Value.Str "hi") "hi";
  check (Urm_relalg.Value.Float 2.5) "2.5"

let test_schema_pp_and_catalog_names () =
  let text = Format.asprintf "%a" Urm_relalg.Schema.pp Urm_tpch.Gen.schema in
  Alcotest.(check bool) "schema pp mentions orders" true
    (String.length text > 100);
  let cat = Urm_tpch.Gen.generate ~seed:1 ~scale:0.005 () in
  Alcotest.(check int) "eight relations" 8 (List.length (Urm_relalg.Catalog.names cat));
  Alcotest.(check bool) "sorted names" true
    (let names = Urm_relalg.Catalog.names cat in
     names = List.sort String.compare names)

let test_sql_negative_numbers () =
  let target =
    Urm_relalg.Schema.make "T" [ ("R", [ ("n", Urm_relalg.Schema.TInt) ]) ]
  in
  match Urm.Sql.parse ~name:"t" ~target "SELECT * FROM R WHERE n = -5" with
  | Ok q -> begin
    match q.Urm.Query.selections with
    | [ (_, Urm_relalg.Value.Int (-5)) ] -> ()
    | _ -> Alcotest.fail "negative literal"
  end
  | Error e -> Alcotest.failf "parse error: %a" Urm.Sql.pp_error e

let test_json_number_forms () =
  let module J = Urm_util.Json in
  List.iter
    (fun (text, expected) ->
      match J.parse text with
      | Ok (J.Num f) -> Alcotest.(check (float 1e-9)) text expected f
      | _ -> Alcotest.failf "did not parse %s" text)
    [ ("0", 0.); ("-12", -12.); ("3.5", 3.5); ("1e3", 1000.); ("2.5E-1", 0.25) ]

let suite =
  [
    Alcotest.test_case "stopwatch" `Quick test_stopwatch;
    Alcotest.test_case "timer repeat" `Quick test_timer_repeat;
    Alcotest.test_case "relation pp truncates" `Quick test_relation_pp_truncates;
    Alcotest.test_case "value pp" `Quick test_value_pp;
    Alcotest.test_case "schema pp + catalog names" `Quick test_schema_pp_and_catalog_names;
    Alcotest.test_case "sql negative numbers" `Quick test_sql_negative_numbers;
    Alcotest.test_case "json number forms" `Quick test_json_number_forms;
    Alcotest.test_case "algorithm names" `Quick test_algorithm_names;
    Alcotest.test_case "report total" `Quick test_report_total;
    Alcotest.test_case "experiment table pp" `Quick test_experiment_table_pp;
    Alcotest.test_case "experiments registry" `Quick test_experiments_registry;
    Alcotest.test_case "matcher per-attr cap" `Quick test_matcher_per_attr_cap;
    Alcotest.test_case "matcher slack" `Quick test_matcher_slack;
    Alcotest.test_case "pipeline run wrapper" `Quick test_pipeline_run_wrapper;
    Alcotest.test_case "pp smoke" `Quick test_mapping_pp_and_query_pp;
  ]
