open Urm_relalg

let body_expr (sq, _) =
  match sq.Reformulate.body with Reformulate.Expr e -> Some e | _ -> None

(* [eval_units ~ctrs ctx q units] plans the evaluable units of [units]
   together (one shared MQO plan) and returns one partial answer per unit,
   index-aligned with [units], plus the plan and execution times.

   Contributions are kept per unit and merged by the caller, which times
   the merge as the aggregate phase.  Sums are exact, so the plan's
   internal evaluation order cannot perturb them either way. *)
let eval_units ~ctrs (ctx : Ctx.t) q units =
  let units = Array.of_list units in
  let header = Reformulate.output_header q in
  let parts = Array.map (fun _ -> Answer.create header) units in
  let evaluable_idx =
    Array.to_list units
    |> List.mapi (fun i u -> (i, u))
    |> List.filter_map (fun (i, u) -> if body_expr u = None then None else Some i)
    |> Array.of_list
  in
  let exprs =
    Array.to_list evaluable_idx
    |> List.map (fun i -> Option.get (body_expr units.(i)))
  in
  let plan, plan_time =
    Urm_util.Timer.time (fun () -> Urm_mqo.Planner.plan ctx.catalog exprs)
  in
  let (), evaluate =
    Urm_util.Timer.time (fun () ->
        Urm_mqo.Planner.execute_iter ~ctrs
          ~eval:(fun e -> Ctx.eval ~ctrs ctx e)
          ctx.catalog plan
          ~f:(fun i _ rel ->
            let j = evaluable_idx.(i) in
            let sq, p = units.(j) in
            Reformulate.answers_into parts.(j) sq
              ~factor:(Reformulate.factor ctx.catalog sq) rel p))
  in
  Array.iteri
    (fun j ((sq, p) as u) ->
      if body_expr u = None then
        Reformulate.null_answer_into parts.(j) sq
          ~factor:(Reformulate.factor ctx.catalog sq) p)
    units;
  (parts, plan_time, evaluate)

(* The interpreted Roy et al. planner path — deliberately expensive plan
   search (see {!Urm_mqo.Planner}) and the factorized executor's
   differential oracle. *)
let run_interpreted ~ctrs (ctx : Ctx.t) q ms =
  let distinct, rewrite =
    Urm_util.Timer.time (fun () -> Ebasic.distinct_source_queries ctx q ms)
  in
  let parts, plan_time, evaluate = eval_units ~ctrs ctx q distinct in
  let acc = Answer.create (Reformulate.output_header q) in
  let (), aggregate =
    Urm_util.Timer.time (fun () -> Array.iter (Answer.merge_into acc) parts)
  in
  {
    Report.answer = acc;
    timings = { Report.rewrite; plan = plan_time; evaluate; aggregate };
    source_operators = ctrs.Eval.operators;
    rows_produced = ctrs.Eval.rows_produced;
    groups = Array.length parts;
    engine = "interpreted";
  }

(* On the plan engine: the factorized executor with cross-unit
   common-subexpression elimination ({!Urm_mqo.Dag}) — the global e-unit
   DAG is built once with a cheap counting pass, each share materialises
   once, and every distinct unit streams its batches into the answer with
   its whole mapping-mass vector. *)
let run ?(metrics = Urm_obs.Metrics.global) (ctx : Ctx.t) q ms =
  let m = Urm_obs.Metrics.scope metrics "e-MQO" in
  let report =
    match Ctx.engine ctx with
    | Urm_relalg.Compile.Interpreted ->
      run_interpreted ~ctrs:(Eval.fresh_counters ~metrics:m ()) ctx q ms
    | Urm_relalg.Compile.Vectorized ->
      fst
        (Factorized.run ~metrics:m ~cse:true ctx q (fun () ->
             Factorized.weighted_units ctx q ms))
  in
  Report.record_metrics m report;
  report
