open Urm_relalg

let with_masses units = List.map (fun (sq, w) -> (sq, Answer.mass w)) units

let distinct_source_queries ctx q ms =
  with_masses (Factorized.weighted_units ctx q ms)

(* One distinct source query's evaluate→aggregate step. *)
let eval_unit ~evaluate_sw ~aggregate_sw ~ctrs (ctx : Ctx.t) acc (sq, mass) =
  let rel =
    Urm_util.Timer.Stopwatch.timed evaluate_sw (fun () ->
        match sq.Reformulate.body with
        | Reformulate.Expr e -> Some (Ctx.eval ~ctrs ctx e)
        | Reformulate.Unsatisfiable | Reformulate.Trivial -> None)
  in
  Urm_util.Timer.Stopwatch.timed aggregate_sw (fun () ->
      let factor = Reformulate.factor ctx.catalog sq in
      match rel with
      | Some r -> Reformulate.answers_into acc sq ~factor r mass
      | None -> Reformulate.null_answer_into acc sq ~factor mass)

(* The interpreted per-unit loop — the factorized executor's differential
   oracle.  Building the units (and their exact masses) is the rewrite
   phase. *)
let run_interpreted ~ctrs (ctx : Ctx.t) q build =
  let units, rewrite =
    Urm_util.Timer.time (fun () -> with_masses (build ()))
  in
  let sw_evaluate = Urm_util.Timer.Stopwatch.create () in
  let sw_aggregate = Urm_util.Timer.Stopwatch.create () in
  let acc = Answer.create (Reformulate.output_header q) in
  List.iter
    (eval_unit ~evaluate_sw:sw_evaluate ~aggregate_sw:sw_aggregate ~ctrs ctx acc)
    units;
  {
    Report.answer = acc;
    timings =
      {
        Report.rewrite;
        plan = 0.;
        evaluate = Urm_util.Timer.Stopwatch.elapsed sw_evaluate;
        aggregate = Urm_util.Timer.Stopwatch.elapsed sw_aggregate;
      };
    source_operators = ctrs.Eval.operators;
    rows_produced = ctrs.Eval.rows_produced;
    groups = List.length units;
    engine = "interpreted";
  }

(* On the plan engine each unit runs once, streaming its batches into the
   answer with its exact mapping mass (no cross-unit CSE — that is
   e-MQO's job).  Bit-identical to [run_interpreted]: each unit adds the
   same exact mass, and {!Answer} sums exactly. *)
let run_units ~metrics (ctx : Ctx.t) q build =
  match Ctx.engine ctx with
  | Urm_relalg.Compile.Interpreted ->
    run_interpreted ~ctrs:(Eval.fresh_counters ~metrics ()) ctx q build
  | Urm_relalg.Compile.Vectorized -> fst (Factorized.run ~metrics ctx q build)

let run ?(metrics = Urm_obs.Metrics.global) (ctx : Ctx.t) q ms =
  let m = Urm_obs.Metrics.scope metrics "e-basic" in
  let report =
    run_units ~metrics:m ctx q (fun () -> Factorized.weighted_units ctx q ms)
  in
  Report.record_metrics m report;
  report
