let representatives (ctx : Ctx.t) q ms =
  Ptree.represent (Ptree.partition ctx.target q ms)

(* Basic over the representatives on either engine; partitioning counts
   as rewrite time. *)
let run ?(metrics = Urm_obs.Metrics.global) (ctx : Ctx.t) q ms =
  let m = Urm_obs.Metrics.scope metrics "q-sharing" in
  let reps, partition_time =
    Urm_util.Timer.time (fun () -> representatives ctx q ms)
  in
  let report = Basic.run_scoped ~metrics:m ctx q reps in
  let report =
    {
      report with
      Report.timings =
        {
          report.Report.timings with
          Report.rewrite = report.Report.timings.Report.rewrite +. partition_time;
        };
    }
  in
  Report.record_metrics m report;
  report
