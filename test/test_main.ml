(* First, before Alcotest touches argv: the shard tests spawn worker
   processes by re-executing this binary with URM_SHARD_WORKER set. *)
let () = Urm_shard.Launcher.exec_if_worker ()

let () =
  Alcotest.run "urm"
    [
      ("util", Test_util.suite);
      ("relalg", Test_relalg.suite);
      ("eval", Test_eval.suite);
      ("tpch", Test_tpch.suite);
      ("matcher", Test_matcher.suite);
      ("bipartite", Test_bipartite.suite);
      ("mqo", Test_mqo.suite);
      ("core", Test_core.suite);
      ("sql", Test_sql.suite);
      ("extensions", Test_extensions.suite);
      ("eunit", Test_eunit.suite);
      ("misc", Test_misc.suite);
      ("xmlconv", Test_xmlconv.suite);
      ("workload", Test_workload.suite);
      ("service", Test_service.suite);
      ("differential", Test_differential.suite);
      ("plan", Test_plan.suite);
      ("anytime", Test_anytime.suite);
      ("incr", Test_incr.suite);
      ("frame", Test_frame.suite);
      ("front", Test_front.suite);
      ("shard", Test_shard.suite);
    ]
