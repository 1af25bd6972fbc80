open Urm_relalg

let distinct_source_queries ctx q ms =
  List.map
    (fun (sq, w) -> (sq, Answer.vec_mass w))
    (Factorized.weighted_units ctx q ms)

(* One distinct source query's evaluate→aggregate step. *)
let eval_unit ~evaluate_sw ~aggregate_sw ~ctrs (ctx : Ctx.t) acc (sq, p) =
  let rel =
    Urm_util.Timer.Stopwatch.timed evaluate_sw (fun () ->
        match sq.Reformulate.body with
        | Reformulate.Expr e -> Some (Ctx.eval ~ctrs ctx e)
        | Reformulate.Unsatisfiable | Reformulate.Trivial -> None)
  in
  Urm_util.Timer.Stopwatch.timed aggregate_sw (fun () ->
      let factor = Reformulate.factor ctx.catalog sq in
      match rel with
      | Some r -> Reformulate.answers_into acc sq ~factor r p
      | None -> Reformulate.null_answer_into acc sq ~factor p)

(* The interpreted per-unit loop — the factorized executor's differential
   oracle. *)
let run_interpreted ~ctrs (ctx : Ctx.t) q ms =
  let distinct, rewrite =
    Urm_util.Timer.time (fun () -> distinct_source_queries ctx q ms)
  in
  let sw_evaluate = Urm_util.Timer.Stopwatch.create () in
  let sw_aggregate = Urm_util.Timer.Stopwatch.create () in
  let acc = Answer.create (Reformulate.output_header q) in
  List.iter
    (eval_unit ~evaluate_sw:sw_evaluate ~aggregate_sw:sw_aggregate ~ctrs ctx acc)
    distinct;
  {
    Report.answer = acc;
    intervals = None;
    timings =
      {
        Report.rewrite;
        plan = 0.;
        evaluate = Urm_util.Timer.Stopwatch.elapsed sw_evaluate;
        aggregate = Urm_util.Timer.Stopwatch.elapsed sw_aggregate;
      };
    source_operators = ctrs.Eval.operators;
    rows_produced = ctrs.Eval.rows_produced;
    groups = List.length distinct;
    engine = "interpreted";
  }

(* Each distinct source query runs once on the plan engine, streaming its
   batches into the answer with the unit's whole mapping-mass vector (no
   cross-unit CSE — that is e-MQO's job).  Bit-identical to
   [run_interpreted]: each unit adds the oracle's collapsed mass, and
   {!Answer} sums exactly. *)
let run ?(metrics = Urm_obs.Metrics.global) (ctx : Ctx.t) q ms =
  let m = Urm_obs.Metrics.scope metrics "e-basic" in
  let report =
    match Ctx.engine ctx with
    | Urm_relalg.Compile.Interpreted ->
      run_interpreted ~ctrs:(Eval.fresh_counters ~metrics:m ()) ctx q ms
    | Urm_relalg.Compile.Vectorized ->
      fst
        (Factorized.run ~metrics:m ctx q (fun () ->
             Factorized.weighted_units ctx q ms))
  in
  Report.record_metrics m report;
  report
