open Urm_relalg

let distinct_source_queries (ctx : Ctx.t) q ms =
  let groups = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun m ->
      let sq = Reformulate.source_query ctx.target q m in
      let k = Reformulate.key sq in
      match Hashtbl.find_opt groups k with
      | Some cell -> cell := (fst !cell, snd !cell +. m.Mapping.prob)
      | None ->
        Hashtbl.add groups k (ref (sq, m.Mapping.prob));
        order := k :: !order)
    ms;
  List.rev_map (fun k -> !(Hashtbl.find groups k)) !order

let timed sw f =
  Urm_util.Timer.Stopwatch.start sw;
  Fun.protect ~finally:(fun () -> Urm_util.Timer.Stopwatch.stop sw) f

(* One distinct source query's evaluate→aggregate step. *)
let eval_unit ~evaluate_sw ~aggregate_sw ~ctrs (ctx : Ctx.t) acc (sq, p) =
  let rel =
    timed evaluate_sw (fun () ->
        match sq.Reformulate.body with
        | Reformulate.Expr e -> Some (Ctx.eval ~ctrs ctx e)
        | Reformulate.Unsatisfiable | Reformulate.Trivial -> None)
  in
  timed aggregate_sw (fun () ->
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

let run ?(metrics = Urm_obs.Metrics.global) (ctx : Ctx.t) q ms =
  let m = Urm_obs.Metrics.scope metrics "e-basic" in
  let ctrs = Eval.fresh_counters ~metrics:m () in
  let report =
    match Ctx.engine ctx with
    | Urm_relalg.Compile.Interpreted -> run_interpreted ~ctrs ctx q ms
    | Urm_relalg.Compile.Vectorized ->
      (* Each distinct source query runs once, streaming its batches into
         the answer with the unit's whole mapping-mass vector (no
         cross-unit CSE — that is e-MQO's job).  Bit-identical to
         [run_interpreted]: same unit order, and the collapsed vector mass
         equals the incremental per-mapping sum. *)
      let units, rewrite =
        Urm_util.Timer.time (fun () -> Factorized.weighted_units ctx q ms)
      in
      let r = Factorized.eval ~ctrs ctx q units in
      Factorized.report ~ctrs ~rewrite ~groups:r.Factorized.units ctx r
  in
  Report.record_metrics m report;
  report
