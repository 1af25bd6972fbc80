(* urm — command-line interface to the uncertain-matching query engine.

   Subcommands:
     generate    print statistics of a synthetic source instance
     match       show matcher correspondence candidates for a target schema
     mappings    generate the h best possible mappings and overlap statistics
     query       evaluate one of the Table III queries with a chosen algorithm
     topk        evaluate a probabilistic top-k query
     experiment  run one (or all) of the paper's experiments *)

(* Must run before anything else: a process spawned by the shard router
   re-executes this binary with URM_SHARD_WORKER set and must become a
   worker instead of parsing arguments. *)
let () = Urm_shard.Launcher.exec_if_worker ()

open Cmdliner

let scale_t =
  let doc = "Scale of the synthetic source instance (1.0 ≈ 86k tuples)." in
  Arg.(value & opt float Urm_tpch.Gen.default_scale & info [ "scale" ] ~doc)

let seed_t =
  let doc = "Random seed for data generation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let h_t =
  let doc = "Number of possible mappings (the paper's h)." in
  Arg.(value & opt int 100 & info [ "num-mappings"; "m" ] ~doc)

let target_t =
  let doc = "Target schema: Excel, Noris or Paragon." in
  Arg.(value & opt string "Excel" & info [ "target" ] ~doc)

let lookup_target name =
  try Ok (Urm_workload.Targets.by_name name)
  with Not_found ->
    Error (`Msg (Printf.sprintf "unknown target schema %S (Excel|Noris|Paragon)" name))

let metrics_t =
  let doc =
    "After evaluating, print the operator-level metrics registry (counters \
     and phase timers) as JSON on stdout."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let print_metrics enabled =
  if enabled then
    print_endline
      (Urm_util.Json.to_string (Urm_obs.Metrics.to_json Urm_obs.Metrics.global))

(* ------------------------------------------------------------------ *)

let generate_cmd =
  let run scale seed =
    let cat = Urm_tpch.Gen.generate ~seed ~scale () in
    Format.printf "source instance at scale %g (seed %d):@." scale seed;
    List.iter
      (fun name ->
        Format.printf "  %-10s %8d rows@." name
          (Urm_relalg.Relation.cardinality (Urm_relalg.Catalog.find cat name)))
      (Urm_relalg.Catalog.names cat);
    Format.printf "  %-10s %8d rows total@." "" (Urm_relalg.Catalog.total_rows cat)
  in
  let doc = "Generate a synthetic TPC-H-style source instance and print statistics." in
  Cmd.v (Cmd.info "generate" ~doc) Term.(const run $ scale_t $ seed_t)

let match_cmd =
  let run target_name limit =
    match lookup_target target_name with
    | Error (`Msg m) ->
      prerr_endline m;
      exit 1
    | Ok target ->
      let cands =
        Urm_matcher.Match.candidates ~source:Urm_tpch.Gen.schema ~target ()
      in
      Format.printf "%d candidates for %s ↔ TPCH (best first):@."
        (List.length cands) target_name;
      List.iteri
        (fun i c ->
          if i < limit then Format.printf "  %a@." Urm_matcher.Match.pp_candidate c)
        cands
  in
  let limit_t =
    Arg.(value & opt int 30 & info [ "limit" ] ~doc:"Candidates to print.")
  in
  let doc = "Score correspondence candidates between a target schema and the source." in
  Cmd.v (Cmd.info "match" ~doc) Term.(const run $ target_t $ limit_t)

let mappings_cmd =
  let run target_name h show =
    match lookup_target target_name with
    | Error (`Msg m) ->
      prerr_endline m;
      exit 1
    | Ok target ->
      let ms = Urm.Mapgen.generate ~h ~source:Urm_tpch.Gen.schema ~target () in
      Format.printf "%d possible mappings for %s; o-ratio %.3f@." (List.length ms)
        target_name
        (Urm.Overlap.o_ratio ms);
      List.iteri (fun i m -> if i < show then Format.printf "%a@." Urm.Mapping.pp m) ms;
      Format.printf "@.most shared correspondences:@.";
      List.iteri
        (fun i ((t, s), f) ->
          if i < 10 then Format.printf "  %-28s ← %-24s %.0f%%@." t s (100. *. f))
        (Urm.Overlap.correspondence_frequencies ms)
  in
  let show_t = Arg.(value & opt int 3 & info [ "show" ] ~doc:"Mappings to print.") in
  let doc = "Generate the h best possible mappings via Murty's algorithm." in
  Cmd.v (Cmd.info "mappings" ~doc) Term.(const run $ target_t $ h_t $ show_t)

let algorithm_t =
  let doc = "Algorithm: basic, e-basic, e-mqo, q-sharing, o-sharing, o-sharing-random, o-sharing-snf." in
  Arg.(value & opt string "o-sharing" & info [ "algorithm"; "a" ] ~doc)

let parse_algorithm = function
  | "basic" -> Ok Urm.Algorithms.Basic
  | "e-basic" -> Ok Urm.Algorithms.Ebasic
  | "e-mqo" -> Ok Urm.Algorithms.Emqo
  | "q-sharing" -> Ok Urm.Algorithms.Qsharing
  | "o-sharing" -> Ok (Urm.Algorithms.Osharing Urm.Eunit.Sef)
  | "o-sharing-snf" -> Ok (Urm.Algorithms.Osharing Urm.Eunit.Snf)
  | "o-sharing-random" -> Ok (Urm.Algorithms.Osharing Urm.Eunit.Random)
  | other -> Error (`Msg ("unknown algorithm " ^ other))

let query_name_t =
  let doc = "Query name (Q1..Q10)." in
  Arg.(value & pos 0 string "Q1" & info [] ~docv:"QUERY" ~doc)

let engine_conv =
  Arg.conv
    ( (fun s ->
        match Urm_relalg.Compile.engine_of_string s with
        | Ok e -> Ok e
        | Error msg -> Error (`Msg msg)),
      fun ppf e -> Format.pp_print_string ppf (Urm_relalg.Compile.engine_name e)
    )

let engine_t =
  let doc =
    "Query-execution engine: 'vectorized' (columnar batched execution over \
     cost-based compiled plans; the default) or 'interpreted' (the \
     tree-walking reference evaluator).  Both return identical answers."
  in
  Arg.(
    value & opt engine_conv Urm_relalg.Compile.Vectorized & info [ "engine" ] ~doc)

let answers_t =
  Arg.(value & opt int 10 & info [ "answers" ] ~doc:"Answer tuples to print.")

let sql_t =
  let doc =
    "Evaluate this SQL text instead of a named query (the positional QUERY \
     argument then selects only the target schema via Q1..Q10, or use \
     --target)."
  in
  Arg.(value & opt (some string) None & info [ "sql" ] ~doc)

let explain_t =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"Print the u-trace (operator choices, partitions, leaves) while evaluating.")

let query_cmd =
  let run qname alg_name scale seed h answers sql explain engine metrics =
    match parse_algorithm alg_name with
    | Error (`Msg m) ->
      prerr_endline m;
      exit 1
    | Ok alg -> begin
      match
        match sql with
        | None -> Urm_workload.Queries.by_name qname
        | Some text ->
          let target =
            match Urm_workload.Queries.by_name qname with
            | target, _ -> target
            | exception Not_found -> Urm_workload.Targets.by_name qname
          in
          (target, Urm.Sql.parse_exn ~name:"sql" ~target text)
      with
      | exception Not_found ->
        Format.eprintf "unknown query %s (Q1..Q10)@." qname;
        exit 1
      | exception Invalid_argument msg ->
        Format.eprintf "%s@." msg;
        exit 1
      | target, q ->
        let p = Urm_workload.Pipeline.create ~seed ~scale () in
        let ctx = Urm_workload.Pipeline.ctx ~engine p target in
        let ms = Urm_workload.Pipeline.mappings p target ~h in
        Format.printf "query: %a@." Urm.Query.pp q;
        let report =
          match (explain, alg) with
          | true, Urm.Algorithms.Osharing strategy ->
            let tracer line = Format.printf "  │ %s@." line in
            fst (Urm.Osharing.run_with_stats ~strategy ~tracer ctx q ms)
          | true, _ ->
            Format.eprintf "--explain requires an o-sharing algorithm@.";
            exit 1
          | false, _ -> Urm.Algorithms.run alg ctx q ms
        in
        Format.printf "%s: %a@." (Urm.Algorithms.name alg) Urm.Report.pp report;
        (* The report records the engine that actually ran (an algorithm may
           route to the interpreted oracle or a "+factorized" variant); warn
           when it differs from the engine the user asked for. *)
        (match report.Urm.Report.engine with
        | "" -> ()
        | effective ->
          let base =
            match String.index_opt effective '+' with
            | Some i -> String.sub effective 0 i
            | None -> effective
          in
          Format.printf "engine: %s@." effective;
          let requested = Urm_relalg.Compile.engine_name engine in
          if base <> requested then
            Format.eprintf
              "warning: requested engine '%s' but %s executed with '%s'@."
              requested (Urm.Algorithms.name alg) effective);
        Format.printf "answers (top %d of %d):@." answers
          (Urm.Answer.size report.Urm.Report.answer);
        List.iter
          (fun (t, prob) ->
            Format.printf "  (%s) : %.4f@."
              (String.concat ", "
                 (Array.to_list (Array.map Urm_relalg.Value.to_string t)))
              prob)
          (Urm.Answer.top_k report.Urm.Report.answer answers);
        if Urm.Answer.null_prob report.Urm.Report.answer > 0. then
          Format.printf "  θ (empty) : %.4f@."
            (Urm.Answer.null_prob report.Urm.Report.answer);
        print_metrics metrics
    end
  in
  let doc = "Evaluate a probabilistic query over the uncertain matching." in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const run $ query_name_t $ algorithm_t $ scale_t $ seed_t $ h_t $ answers_t
      $ sql_t $ explain_t $ engine_t $ metrics_t)

(* What [visited_eunits] counts: u-trace e-units on the interpreted
   engine, representative units of the factorized pass on the plan
   engine. *)
let visited_label = function
  | Urm_relalg.Compile.Interpreted -> "e-units"
  | Urm_relalg.Compile.Vectorized -> "units"

let topk_cmd =
  let run qname k scale seed h engine metrics =
    match Urm_workload.Queries.by_name qname with
    | exception Not_found ->
      Format.eprintf "unknown query %s (Q1..Q10)@." qname;
      exit 1
    | target, q ->
      let p = Urm_workload.Pipeline.create ~seed ~scale () in
      let ctx = Urm_workload.Pipeline.ctx ~engine p target in
      let ms = Urm_workload.Pipeline.mappings p target ~h in
      let r = Urm.Topk.run ~k ctx q ms in
      Format.printf "top-%d of %a (stopped early: %b, %d %s visited):@." k
        Urm.Query.pp q r.Urm.Topk.stopped_early r.Urm.Topk.visited_eunits
        (visited_label engine);
      List.iter
        (fun (t, lb) ->
          Format.printf "  (%s) : ≥ %.4f@."
            (String.concat ", "
               (Array.to_list (Array.map Urm_relalg.Value.to_string t)))
            lb)
        (Urm.Answer.to_list r.Urm.Topk.report.Urm.Report.answer);
      print_metrics metrics
  in
  let k_t = Arg.(value & opt int 5 & info [ "k" ] ~doc:"How many answers.") in
  let doc = "Evaluate a probabilistic top-k query." in
  Cmd.v (Cmd.info "topk" ~doc)
    Term.(const run $ query_name_t $ k_t $ scale_t $ seed_t $ h_t $ engine_t $ metrics_t)

let threshold_cmd =
  let run qname tau scale seed h engine metrics =
    match Urm_workload.Queries.by_name qname with
    | exception Not_found ->
      Format.eprintf "unknown query %s (Q1..Q10)@." qname;
      exit 1
    | target, q ->
      let p = Urm_workload.Pipeline.create ~seed ~scale () in
      let ctx = Urm_workload.Pipeline.ctx ~engine p target in
      let ms = Urm_workload.Pipeline.mappings p target ~h in
      let r = Urm.Threshold.run ~tau ctx q ms in
      Format.printf "answers of %a with probability ≥ %.2f (stopped early: %b):@."
        Urm.Query.pp q tau r.Urm.Threshold.stopped_early;
      List.iter
        (fun (t, lb) ->
          Format.printf "  (%s) : ≥ %.4f@."
            (String.concat ", "
               (Array.to_list (Array.map Urm_relalg.Value.to_string t)))
            lb)
        (Urm.Answer.to_list r.Urm.Threshold.report.Urm.Report.answer);
      print_metrics metrics
  in
  let tau_t = Arg.(value & opt float 0.5 & info [ "tau" ] ~doc:"Probability threshold.") in
  let doc = "Evaluate a probability-threshold query." in
  Cmd.v (Cmd.info "threshold" ~doc)
    Term.(const run $ query_name_t $ tau_t $ scale_t $ seed_t $ h_t $ engine_t $ metrics_t)

let approx_cmd =
  let run qname epsilon deadline k tau synthetic scale seed h engine metrics =
    match Urm_workload.Queries.by_name qname with
    | exception Not_found ->
      Format.eprintf "unknown query %s (Q1..Q10)@." qname;
      exit 1
    | target, q ->
      let module Json = Urm_util.Json in
      let mode =
        match (k, tau) with
        | Some _, Some _ ->
          prerr_endline "give --k or --tau, not both";
          exit 1
        | Some k, None -> Urm.Approx.Top k
        | None, Some tau -> Urm.Approx.Above tau
        | None, None -> Urm.Approx.Estimate epsilon
      in
      let p = Urm_workload.Pipeline.create ~seed ~scale () in
      let ctx = Urm_workload.Pipeline.ctx ~engine p target in
      let ms =
        if synthetic then Urm_workload.Pipeline.synthetic_mappings p target ~h
        else Urm_workload.Pipeline.mappings p target ~h
      in
      let r = Urm.Approx.run ?deadline mode ctx q ms in
      print_endline
        (Json.to_string
           (Json.Obj
              ([
                 ("query", Json.Str qname);
                 ("mappings", Json.Num (float_of_int (List.length ms)));
               ]
              @ Urm.Approx.fields r)));
      print_metrics metrics
  in
  let epsilon_t =
    Arg.(
      value & opt float 0.02
      & info [ "epsilon" ]
          ~doc:
            "Target interval half-width for the plain estimate: stop once the \
             unvisited mass is at most 2ε (ignored with --k/--tau; 0 gives the \
             exact answer).")
  in
  let deadline_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ]
          ~doc:"Wall-clock budget in seconds, checked once per unit.")
  in
  let k_opt_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "k" ] ~doc:"Anytime top-k: stop once the bounds prove the top-k set.")
  in
  let tau_opt_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "tau" ]
          ~doc:"Anytime threshold: stop once every tuple is decided against τ.")
  in
  let synthetic_t =
    Arg.(
      value & flag
      & info [ "synthetic" ]
          ~doc:
            "Draw the mapping set with the synthetic generator (scales to h = \
             10⁴..10⁶) instead of Murty's exact enumeration.")
  in
  let doc =
    "Anytime approximate evaluation: the exact pass over the q-sharing \
     partitions in descending mass order, stopped as soon as its \
     deterministic bounds [mass seen, mass seen + unvisited mass] answer \
     the request or the deadline passes.  Prints a JSON result with \
     per-tuple interval bounds and the stop reason."
  in
  Cmd.v (Cmd.info "approx" ~doc)
    Term.(
      const run $ query_name_t $ epsilon_t $ deadline_t $ k_opt_t $ tau_opt_t
      $ synthetic_t $ scale_t $ seed_t $ h_t $ engine_t $ metrics_t)

let export_cmd =
  let run dir scale seed =
    let cat = Urm_tpch.Gen.generate ~seed ~scale () in
    Urm_relalg.Csv.export_catalog dir cat;
    Format.printf "wrote %d relations (%d rows) to %s/@."
      (List.length (Urm_relalg.Catalog.names cat))
      (Urm_relalg.Catalog.total_rows cat)
      dir
  in
  let dir_t = Arg.(value & pos 0 string "urm-data" & info [] ~docv:"DIR") in
  let doc = "Export a generated source instance as CSV files." in
  Cmd.v (Cmd.info "export" ~doc) Term.(const run $ dir_t $ scale_t $ seed_t)

let save_mappings_cmd =
  let run path target_name h =
    match lookup_target target_name with
    | Error (`Msg m) ->
      prerr_endline m;
      exit 1
    | Ok target ->
      let ms = Urm.Mapgen.generate ~h ~source:Urm_tpch.Gen.schema ~target () in
      Urm.Mapping_io.save path ms;
      Format.printf "saved %d mappings to %s@." (List.length ms) path
  in
  let path_t = Arg.(value & pos 0 string "mappings.json" & info [] ~docv:"FILE") in
  let doc = "Generate mappings and save them as JSON." in
  Cmd.v (Cmd.info "save-mappings" ~doc) Term.(const run $ path_t $ target_t $ h_t)

let plan_cmd =
  let run qname scale seed h =
    match Urm_workload.Queries.by_name qname with
    | exception Not_found ->
      Format.eprintf "unknown query %s (Q1..Q10)@." qname;
      exit 1
    | target, q ->
      let p = Urm_workload.Pipeline.create ~seed ~scale () in
      let ctx = Urm_workload.Pipeline.ctx p target in
      let ms = Urm_workload.Pipeline.mappings p target ~h in
      let distinct = Urm.Ebasic.distinct_source_queries ctx q ms in
      Format.printf "%a reformulates into %d distinct source queries over %d mappings:@."
        Urm.Query.pp q (List.length distinct) (List.length ms);
      List.iter
        (fun (sq, mass) ->
          let prob = Urm.Answer.round mass in
          match sq.Urm.Reformulate.body with
          | Urm.Reformulate.Expr e ->
            Format.printf "@.  [p=%.3f] %s@." prob (Urm_relalg.Algebra.to_string e)
          | Urm.Reformulate.Unsatisfiable ->
            Format.printf "@.  [p=%.3f] unsatisfiable (θ)@." prob
          | Urm.Reformulate.Trivial -> Format.printf "@.  [p=%.3f] trivial@." prob)
        distinct
  in
  let doc = "Show the distinct reformulated source queries and their probability mass." in
  Cmd.v (Cmd.info "plan" ~doc) Term.(const run $ query_name_t $ scale_t $ seed_t $ h_t)

let experiment_cmd =
  let run id quick engine =
    let cfg =
      if quick then Urm_workload.Experiments.quick
      else Urm_workload.Experiments.default
    in
    let cfg = { cfg with Urm_workload.Experiments.engine } in
    let ids =
      if String.equal id "all" then List.map fst Urm_workload.Experiments.all
      else [ id ]
    in
    List.iter
      (fun id ->
        match Urm_workload.Experiments.run_by_id cfg id with
        | table -> Format.printf "%a@." Urm_workload.Experiments.Table.pp table
        | exception Not_found ->
          Format.eprintf "unknown experiment %s; available: %s@." id
            (String.concat ", " (List.map fst Urm_workload.Experiments.all));
          exit 1)
      ids
  in
  let id_t =
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc:"Experiment id or 'all'.")
  in
  let quick_t =
    Arg.(value & flag & info [ "quick" ] ~doc:"Use the miniature configuration.")
  in
  let doc = "Re-run the paper's experiments (see DESIGN.md for the index)." in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(const run $ id_t $ quick_t $ engine_t)

(* ------------------------------------------------------------------ *)
(* Query service *)

let port_t =
  let doc = "TCP port on the loopback interface (0 picks an ephemeral port)." in
  Arg.(value & opt int 7411 & info [ "port"; "p" ] ~doc)

let serve_cmd =
  let run_sharded port shards queue_depth cache_size preload seed scale h
      engine =
    let cfg =
      {
        Urm_shard.Router.default_config with
        port;
        shards;
        queue_depth;
        worker =
          {
            Urm_shard.Launcher.engine;
            eval_workers = 1;
            queue_depth;
            cache_capacity = cache_size;
          };
      }
    in
    match Urm_shard.Router.start cfg with
    | Error msg ->
      Format.eprintf "cannot start the shard router: %s@." msg;
      exit 1
    | Ok router ->
      (* Preload over the wire so every shard opens the session. *)
      let client =
        lazy
          (Urm_service.Client.connect ~framed:true
             ~port:(Urm_shard.Router.port router)
             ())
      in
      List.iter
        (fun target ->
          let module Json = Urm_util.Json in
          match
            Urm_service.Client.call (Lazy.force client) ~op:"open-session"
              [
                ("target", Json.Str target);
                ("session", Json.Str (String.lowercase_ascii target));
                ("seed", Json.Num (float_of_int seed));
                ("scale", Json.Num scale);
                ("h", Json.Num (float_of_int h));
              ]
          with
          | Ok _ -> Format.printf "session %s ready on every shard@." target
          | Error (code, msg) ->
            Format.eprintf "preload %s failed: %s: %s@." target code msg;
            exit 1)
        preload;
      if Lazy.is_val client then Urm_service.Client.close (Lazy.force client);
      Format.printf
        "urm shard router listening on 127.0.0.1:%d (%d workers: pids %s)@."
        (Urm_shard.Router.port router)
        shards
        (String.concat ", "
           (List.map string_of_int (Urm_shard.Router.worker_pids router)));
      Sys.set_signal Sys.sigint
        (Sys.Signal_handle (fun _ -> Urm_shard.Router.stop router));
      Urm_shard.Router.wait router;
      Format.printf "drained (%d worker restarts)@."
        (Urm_shard.Router.restarts router)
  in
  let run port shards workers queue_depth cache_size preload seed scale h
      engine metrics =
    if shards > 0 then
      run_sharded port shards queue_depth cache_size preload seed scale h
        engine
    else
    let cfg =
      {
        Urm_service.Server.default_config with
        port;
        queue_depth;
        cache_capacity = cache_size;
        engine;
        workers =
          (match workers with
          | Some w -> w
          | None -> Urm_service.Server.default_config.Urm_service.Server.workers);
      }
    in
    let server = Urm_service.Server.start cfg in
    List.iter
      (fun target ->
        match
          Urm_service.Session.open_session
            (Urm_service.Server.sessions server)
            ~name:(String.lowercase_ascii target)
            ~engine ~seed ~scale ~h ~target ()
        with
        | Ok (s, _) ->
          Format.printf "session %s ready: %s over %s (%d rows, %d mappings)@."
            s.Urm_service.Session.name s.Urm_service.Session.fingerprint target
            s.Urm_service.Session.rows h
        | Error msg ->
          Format.eprintf "preload %s failed: %s@." target msg;
          exit 1)
      preload;
    Format.printf "urm service listening on 127.0.0.1:%d (%d workers, queue %d)@."
      (Urm_service.Server.port server)
      cfg.Urm_service.Server.workers cfg.Urm_service.Server.queue_depth;
    (* Ctrl-C begins the same graceful drain as a client shutdown request. *)
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Urm_service.Server.stop server));
    Urm_service.Server.wait server;
    let count, p50, p95, p99 = Urm_service.Server.latency_summary server in
    Format.printf
      "drained after %d requests (window %d: p50 %.4fs, p95 %.4fs, p99 %.4fs)@."
      (Option.value ~default:0
         (Urm_obs.Metrics.find_counter
            (Urm_obs.Metrics.scope Urm_obs.Metrics.global "service")
            "requests"))
      count p50 p95 p99;
    print_metrics metrics
  in
  let shards_t =
    Arg.(
      value & opt int 0
      & info [ "shards" ]
          ~doc:
            "Run as a shard router over this many spawned worker processes \
             (0 = single-process service).  Session state is replicated to \
             every worker; basic, e-basic, e-mqo and q-sharing queries fan \
             out over unit slots and merge bit-identically.")
  in
  let workers_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~doc:"Executor domains (default: per machine).")
  in
  let queue_t =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ]
          ~doc:"Admission-queue bound; requests beyond it are rejected busy.")
  in
  let cache_t =
    Arg.(value & opt int 256 & info [ "cache-size" ] ~doc:"Answer-cache entries.")
  in
  let preload_t =
    Arg.(
      value & opt_all string []
      & info [ "preload" ]
          ~doc:
            "Open a session for this target schema at boot (repeatable); named \
             after the lowercased target.")
  in
  let doc = "Run the query service: sessions, answer cache, executor pool." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ port_t $ shards_t $ workers_t $ queue_t $ cache_t $ preload_t
      $ seed_t $ scale_t $ h_t $ engine_t $ metrics_t)

let shard_worker_cmd =
  let run port engine = Urm_shard.Worker.run ~port ~engine () in
  let doc =
    "Run one shard worker by hand (the router normally spawns these \
     itself): an ordinary query service that announces its port as \
     'URM_SHARD_PORT <n>' on stdout."
  in
  Cmd.v (Cmd.info "shard-worker" ~doc) Term.(const run $ port_t $ engine_t)

let request_cmd =
  let run port framed op arg session target seed scale h alg answers k tau sql =
    let module Json = Urm_util.Json in
    let opt name v f = Option.map (fun v -> (name, f v)) v in
    let params =
      match op with
      | "ping" | "metrics" | "sessions" | "shutdown" -> Ok []
      | "open-session" ->
        (* The positional argument is the target schema here (it would be
           silently dead otherwise); [--target] remains for symmetry with
           the other subcommands. *)
        let target = Option.value ~default:target arg in
        Ok
          (List.filter_map Fun.id
             [
               Some ("target", Json.Str target);
               opt "session" session (fun s -> Json.Str s);
               Some ("seed", Json.Num (float_of_int seed));
               Some ("scale", Json.Num scale);
               Some ("h", Json.Num (float_of_int h));
             ])
      | "close-session" -> (
        match session with
        | Some s -> Ok [ ("session", Json.Str s) ]
        | None -> Error "close-session needs --session")
      | "query" | "topk" | "threshold" | "approx" -> (
        match (session, arg, sql) with
        | None, _, _ -> Error (op ^ " needs --session")
        | _, Some _, Some _ -> Error "give either a query name or --sql, not both"
        | Some s, _, _ ->
          Ok
            (List.filter_map Fun.id
               [
                 Some ("session", Json.Str s);
                 (match (arg, sql) with
                 | Some q, _ -> Some ("query", Json.Str q)
                 | None, Some text -> Some ("sql", Json.Str text)
                 | None, None -> Some ("query", Json.Str "Q4"));
                 (if String.equal op "query" then Some ("algorithm", Json.Str alg)
                  else None);
                 (if String.equal op "query" || String.equal op "approx" then
                    Some ("answers", Json.Num (float_of_int answers))
                  else None);
                 (if String.equal op "topk" then
                    Some ("k", Json.Num (float_of_int (Option.value ~default:5 k)))
                  else if String.equal op "approx" then
                    opt "k" k (fun k -> Json.Num (float_of_int k))
                  else None);
                 (if String.equal op "threshold" then
                    Some ("tau", Json.Num (Option.value ~default:0.5 tau))
                  else if String.equal op "approx" then
                    opt "tau" tau (fun t -> Json.Num t)
                  else None);
               ]))
      | "raw" -> (
        match arg with
        | Some text -> (
          match Json.parse text with
          | Ok _ -> Ok [ ("__raw", Json.Str text) ]
          | Error msg -> Error ("raw request is not JSON: " ^ msg))
        | None -> Error "raw needs the request JSON as an argument")
      | other -> Error ("unknown op " ^ other)
    in
    match params with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok params -> (
      match Urm_service.Client.connect ~framed ~port () with
      | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "cannot connect to 127.0.0.1:%d: %s@." port
          (Unix.error_message e);
        exit 1
      | client ->
        let result =
          match List.assoc_opt "__raw" params with
          | Some (Json.Str raw) -> (
            match Urm_service.Client.roundtrip client raw with
            | Ok reply -> Ok (Json.parse_exn reply)
            | Error msg -> Error ("transport", msg))
          | _ -> Urm_service.Client.call client ~op params
        in
        Urm_service.Client.close client;
        (match result with
        | Ok json -> print_endline (Json.to_string json)
        | Error (code, msg) ->
          Format.eprintf "%s: %s@." code msg;
          exit 1))
  in
  let op_t =
    let doc =
      "Operation: ping, open-session, close-session, sessions, query, topk, \
       threshold, approx, metrics, shutdown, or raw."
    in
    Arg.(value & pos 0 string "ping" & info [] ~docv:"OP" ~doc)
  in
  let arg_t =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"ARG"
          ~doc:
            "Query name (query/topk/threshold), target schema (open-session), \
             or raw JSON.")
  in
  let session_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "session" ] ~doc:"Session name the request addresses.")
  in
  let answers_t =
    Arg.(value & opt int 20 & info [ "answers" ] ~doc:"Answer tuples to return.")
  in
  let k_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "k" ] ~doc:"Top-k size (default 5; anytime top-k for approx).")
  in
  let tau_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "tau" ]
          ~doc:"Probability threshold (default 0.5; anytime threshold for approx).")
  in
  let framed_t =
    Arg.(
      value & flag
      & info [ "framed" ]
          ~doc:
            "Speak the binary frame protocol instead of ND-JSON lines (the \
             server auto-detects by the first byte).")
  in
  let doc = "Send one request to a running urm service and print the reply." in
  Cmd.v (Cmd.info "request" ~doc)
    Term.(
      const run $ port_t $ framed_t $ op_t $ arg_t $ session_t $ target_t
      $ seed_t $ scale_t $ h_t $ algorithm_t $ answers_t $ k_t $ tau_t $ sql_t)

let mutate_cmd =
  let module Json = Urm_util.Json in
  (* One comma-separated row literal: each token tries int, then float,
     then (bare "null") NULL, and falls back to a string. *)
  let parse_row spec =
    match String.index_opt spec ':' with
    | None -> Error (Printf.sprintf "%S: expected REL:v1,v2,..." spec)
    | Some i ->
      let rel = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      let value tok =
        let tok = String.trim tok in
        match int_of_string_opt tok with
        | Some n -> Json.Num (float_of_int n)
        | None -> (
          match float_of_string_opt tok with
          | Some f -> Json.Num f
          | None -> if String.equal tok "null" then Json.Null else Json.Str tok)
      in
      Ok (rel, List.map value (String.split_on_char ',' rest))
  in
  let parse_reweight spec =
    match String.index_opt spec ':' with
    | None -> Error (Printf.sprintf "%S: expected ID:PROB" spec)
    | Some i -> (
      let id = String.sub spec 0 i in
      let prob = String.sub spec (i + 1) (String.length spec - i - 1) in
      match (int_of_string_opt id, float_of_string_opt prob) with
      | Some id, Some prob -> Ok (id, prob)
      | _ -> Error (Printf.sprintf "%S: expected ID:PROB" spec))
  in
  (* PROB:T.a=S.b,T.c=S.d — the new mapping's probability and its
     target-to-source correspondence pairs. *)
  let parse_add spec =
    match String.index_opt spec ':' with
    | None -> Error (Printf.sprintf "%S: expected PROB:T.a=S.b,..." spec)
    | Some i -> (
      match float_of_string_opt (String.sub spec 0 i) with
      | None -> Error (Printf.sprintf "%S: expected PROB:T.a=S.b,..." spec)
      | Some prob -> (
        let pairs =
          String.split_on_char ',' (String.sub spec (i + 1) (String.length spec - i - 1))
          |> List.map (fun p ->
                 match String.index_opt p '=' with
                 | None -> Error (Printf.sprintf "%S: expected T.attr=S.attr" p)
                 | Some j ->
                   Ok
                     ( String.trim (String.sub p 0 j),
                       String.trim (String.sub p (j + 1) (String.length p - j - 1))
                     ))
        in
        match List.find_opt Result.is_error pairs with
        | Some (Error msg) -> Error msg
        | _ -> Ok (prob, List.map Result.get_ok pairs)))
  in
  let run port session inserts deletes reweights prunes adds =
    let ( let* ) = Result.bind in
    let collect f specs k =
      List.fold_left
        (fun acc spec ->
          let* acc = acc in
          let* v = f spec in
          Ok (k v :: acc))
        (Ok []) specs
      |> Result.map List.rev
    in
    let row_mutation op (rel, row) =
      Json.Obj [ ("op", Json.Str op); ("rel", Json.Str rel); ("row", Json.Arr row) ]
    in
    let mutations =
      let* inserts = collect parse_row inserts (row_mutation "insert") in
      let* deletes = collect parse_row deletes (row_mutation "delete") in
      let* reweights =
        collect parse_reweight reweights (fun (id, prob) ->
            Json.Obj
              [
                ("op", Json.Str "reweight");
                ("mapping", Json.Num (float_of_int id));
                ("prob", Json.Num prob);
              ])
      in
      let prunes =
        List.map
          (fun id ->
            Json.Obj
              [ ("op", Json.Str "prune"); ("mapping", Json.Num (float_of_int id)) ])
          prunes
      in
      let* adds =
        collect parse_add adds (fun (prob, pairs) ->
            Json.Obj
              [
                ("op", Json.Str "add-mapping");
                ( "pairs",
                  Json.Arr
                    (List.map
                       (fun (t, s) -> Json.Arr [ Json.Str t; Json.Str s ])
                       pairs) );
                ("prob", Json.Num prob);
                ("score", Json.Num prob);
              ])
      in
      Ok (inserts @ deletes @ reweights @ prunes @ adds)
    in
    match mutations with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok [] ->
      prerr_endline
        "nothing to do: give --insert/--delete/--reweight/--prune/--add-mapping";
      exit 1
    | Ok mutations -> (
      match Urm_service.Client.connect ~port () with
      | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "cannot connect to 127.0.0.1:%d: %s@." port
          (Unix.error_message e);
        exit 1
      | client ->
        let result =
          Urm_service.Client.call client ~op:"mutate"
            [ ("session", Json.Str session); ("mutations", Json.Arr mutations) ]
        in
        Urm_service.Client.close client;
        (match result with
        | Ok json -> print_endline (Json.to_string json)
        | Error (code, msg) ->
          Format.eprintf "%s: %s@." code msg;
          exit 1))
  in
  let session_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "session" ] ~doc:"Session name to mutate.")
  in
  let inserts_t =
    Arg.(
      value & opt_all string []
      & info [ "insert" ] ~docv:"REL:V1,V2,..."
          ~doc:"Insert a tuple (repeatable); values parse as int, float, \
                null, or string.")
  in
  let deletes_t =
    Arg.(
      value & opt_all string []
      & info [ "delete" ] ~docv:"REL:V1,V2,..."
          ~doc:"Delete one occurrence of a tuple (repeatable); fails when \
                absent.")
  in
  let reweights_t =
    Arg.(
      value & opt_all string []
      & info [ "reweight" ] ~docv:"ID:PROB"
          ~doc:"Set Pr(m_ID) (repeatable); the mapping-set mass is not \
                renormalised.")
  in
  let prunes_t =
    Arg.(
      value & opt_all int []
      & info [ "prune" ] ~docv:"ID" ~doc:"Remove mapping ID (repeatable).")
  in
  let adds_t =
    Arg.(
      value & opt_all string []
      & info [ "add-mapping" ] ~docv:"PROB:T.a=S.b,..."
          ~doc:"Add a mapping with the given probability and \
                target=source correspondence pairs (repeatable).")
  in
  let doc =
    "Commit a mutation batch to a session of a running urm service: tuple \
     inserts/deletes and mapping reweights/prunes/adds, applied atomically \
     in one epoch bump (flag groups apply in the order insert, delete, \
     reweight, prune, add-mapping)."
  in
  Cmd.v (Cmd.info "mutate" ~doc)
    Term.(
      const run $ port_t $ session_t $ inserts_t $ deletes_t $ reweights_t
      $ prunes_t $ adds_t)

let () =
  let doc = "probabilistic queries over uncertain schema matching (ICDE 2012)" in
  let info = Cmd.info "urm" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; match_cmd; mappings_cmd; query_cmd; plan_cmd; topk_cmd;
            threshold_cmd; approx_cmd; export_cmd; save_mappings_cmd;
            experiment_cmd; serve_cmd; shard_worker_cmd; request_cmd; mutate_cmd;
          ]))
