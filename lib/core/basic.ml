open Urm_relalg

(* The interpreted engine runs the paper's per-mapping loop, kept as the
   differential oracle: phases are interleaved per mapping (results are
   not retained across mappings — with large h the h materialised answers
   would not fit in memory) but attributed to the paper's three phases
   with stopwatches: rewrite, evaluate, aggregate (Fig. 10(a)).  The plan
   engine runs the factorized executor over one singleton unit per
   mapping: the same per-mapping additions, and mappings sharing a
   reformulation key replay the first one's answer cells instead of
   re-executing its plan. *)

let run_interpreted ~ctrs (ctx : Ctx.t) q ms =
  let sw_rewrite = Urm_util.Timer.Stopwatch.create () in
  let sw_evaluate = Urm_util.Timer.Stopwatch.create () in
  let sw_aggregate = Urm_util.Timer.Stopwatch.create () in
  let acc = Answer.create (Reformulate.output_header q) in
  List.iter
    (fun m ->
      let sq =
        Urm_util.Timer.Stopwatch.timed sw_rewrite (fun () ->
            Reformulate.source_query ctx.target q m)
      in
      let rel =
        Urm_util.Timer.Stopwatch.timed sw_evaluate (fun () ->
            match sq.Reformulate.body with
            | Reformulate.Expr e -> Some (Ctx.eval ~ctrs ctx e)
            | Reformulate.Unsatisfiable | Reformulate.Trivial -> None)
      in
      Urm_util.Timer.Stopwatch.timed sw_aggregate (fun () ->
          let factor = Reformulate.factor ctx.catalog sq in
          let mass = [ m.Mapping.prob ] in
          match rel with
          | Some r -> Reformulate.answers_into acc sq ~factor r mass
          | None -> Reformulate.null_answer_into acc sq ~factor mass))
    ms;
  {
    Report.answer = acc;
    timings =
      {
        Report.rewrite = Urm_util.Timer.Stopwatch.elapsed sw_rewrite;
        plan = 0.;
        evaluate = Urm_util.Timer.Stopwatch.elapsed sw_evaluate;
        aggregate = Urm_util.Timer.Stopwatch.elapsed sw_aggregate;
      };
    source_operators = ctrs.Eval.operators;
    rows_produced = ctrs.Eval.rows_produced;
    groups = List.length ms;
    engine = "interpreted";
  }

let run ?(metrics = Urm_obs.Metrics.global) (ctx : Ctx.t) q ms =
  let m = Urm_obs.Metrics.scope metrics "basic" in
  let r =
    match Ctx.engine ctx with
    | Compile.Interpreted ->
      run_interpreted ~ctrs:(Eval.fresh_counters ~metrics:m ()) ctx q ms
    | Compile.Vectorized ->
      fst
        (Factorized.run ~metrics:m ctx q (fun () ->
             Factorized.singleton_units ctx q ms))
  in
  Report.record_metrics m r;
  r
