let partitions ctx q ms = (Ptree.shared ctx q ms).Ctx.partition

(* e-basic's per-unit evaluation over one unit per partition, on either
   engine; partitioning counts as rewrite time. *)
let run ?(metrics = Urm_obs.Metrics.global) (ctx : Ctx.t) q ms =
  let m = Urm_obs.Metrics.scope metrics "q-sharing" in
  let report =
    Ebasic.run_units ~metrics:m ctx q (fun () ->
        Factorized.partition_units ctx q (partitions ctx q ms))
  in
  Report.record_metrics m report;
  report
