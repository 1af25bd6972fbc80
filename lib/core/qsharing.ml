open Urm_relalg

let representatives (ctx : Ctx.t) q ms =
  Ptree.represent (Ptree.partition ctx.target q ms)

(* The interpreted oracle runs {!Basic} over the representatives; the plan
   engines run the factorized executor over one singleton-weight unit per
   representative — same per-representative accumulation order (duplicate
   reformulation keys replay), one plan execution per distinct e-unit. *)
let run ?(metrics = Urm_obs.Metrics.global) (ctx : Ctx.t) q ms =
  let m = Urm_obs.Metrics.scope metrics "q-sharing" in
  let reps, partition_time =
    Urm_util.Timer.time (fun () -> representatives ctx q ms)
  in
  let report =
    match Ctx.engine ctx with
    | Urm_relalg.Compile.Interpreted ->
      let report = Basic.run_scoped ~metrics:m ctx q reps in
      {
        report with
        Report.timings =
          {
            report.Report.timings with
            Report.rewrite = report.Report.timings.Report.rewrite +. partition_time;
          };
        groups = List.length reps;
      }
    | Urm_relalg.Compile.Vectorized ->
      let ctrs = Eval.fresh_counters ~metrics:m () in
      let units, rewrite =
        Urm_util.Timer.time (fun () -> Factorized.singleton_units ctx q reps)
      in
      let r = Factorized.eval ~ctrs ctx q units in
      Factorized.report ~ctrs ~rewrite:(partition_time +. rewrite)
        ~groups:(List.length reps) ctx r
  in
  Report.record_metrics m report;
  report
