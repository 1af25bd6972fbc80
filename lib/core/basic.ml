open Urm_relalg

(* Phases are interleaved per mapping (results are not retained across
   mappings — with large h the h materialised answers would not fit in
   memory) but attributed to the paper's three phases with stopwatches:
   rewrite, evaluate, aggregate (Fig. 10(a)). *)

let timed sw f =
  match sw with
  | None -> f ()
  | Some sw ->
    Urm_util.Timer.Stopwatch.start sw;
    Fun.protect ~finally:(fun () -> Urm_util.Timer.Stopwatch.stop sw) f

(* One mapping's rewrite→evaluate→aggregate step, shared by the timed loop
   (which attributes the phases to stopwatches) and {!accumulate} (which
   passes none).

   [memo] (plan engine only) caches, per accumulation run, the
   answer-bucket cells each distinct reformulation key touched: mappings
   sharing a key produce identical target tuples, so later mappings replay
   the recorded cells with their own probability instead of re-executing
   the plan — same buckets, same per-bucket addition order, bit-identical
   to evaluating every mapping (see {!Reformulate.replay_answers_into}). *)
let eval_mapping ?rewrite_sw ?evaluate_sw ?aggregate_sw ?memo ~ctrs (ctx : Ctx.t)
    q acc m =
  let sq = timed rewrite_sw (fun () -> Reformulate.source_query ctx.target q m) in
  let p = m.Mapping.prob in
  match sq.Reformulate.body with
  | Reformulate.Expr e when Ctx.engine ctx = Urm_relalg.Compile.Vectorized ->
    (* The plan engine fuses evaluate and aggregate over batches: plan
       batches stream straight into the accumulator, never materialising
       the per-mapping result.  The fused pass is charged to the evaluate
       phase (it is dominated by plan execution); only the multiplicity
       factor remains under aggregate. *)
    let factor =
      timed aggregate_sw (fun () -> Reformulate.factor ctx.catalog sq)
    in
    timed evaluate_sw (fun () ->
        match memo with
        | None ->
          Reformulate.stream_batch_answers_into acc sq ~factor
            (Ctx.eval_batches ~ctrs ctx e) p
        | Some tbl -> (
          let key = Reformulate.key sq in
          match Hashtbl.find_opt tbl key with
          | Some r -> Reformulate.replay_answers_into acc r p
          | None ->
            Hashtbl.add tbl key
              (Reformulate.record_batch_answers_into acc sq ~factor
                 (Ctx.eval_batches ~ctrs ctx e) p)))
  | body ->
    let rel =
      timed evaluate_sw (fun () ->
          match body with
          | Reformulate.Expr e -> Some (Ctx.eval ~ctrs ctx e)
          | Reformulate.Unsatisfiable | Reformulate.Trivial -> None)
    in
    timed aggregate_sw (fun () ->
        let factor = Reformulate.factor ctx.catalog sq in
        match rel with
        | Some r -> Reformulate.answers_into acc sq ~factor r p
        | None -> Reformulate.null_answer_into acc sq ~factor p)

(* One memo per accumulation run: recorded cells point into the run's
   accumulator, so the table must never outlive [acc]. *)
let memo_for ctx =
  if Ctx.engine ctx = Urm_relalg.Compile.Interpreted then None
  else Some (Hashtbl.create 16)

let accumulate ~ctrs ctx q acc ms =
  let memo = memo_for ctx in
  List.iter (eval_mapping ?memo ~ctrs ctx q acc) ms

let run_scoped ~metrics (ctx : Ctx.t) q ms =
  let ctrs = Eval.fresh_counters ~metrics () in
  let sw_rewrite = Urm_util.Timer.Stopwatch.create () in
  let sw_evaluate = Urm_util.Timer.Stopwatch.create () in
  let sw_aggregate = Urm_util.Timer.Stopwatch.create () in
  let acc = Answer.create (Reformulate.output_header q) in
  let memo = memo_for ctx in
  List.iter
    (eval_mapping ~rewrite_sw:sw_rewrite ~evaluate_sw:sw_evaluate
       ~aggregate_sw:sw_aggregate ?memo ~ctrs ctx q acc)
    ms;
  {
    Report.answer = acc;
    intervals = None;
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
    engine = Urm_relalg.Compile.engine_name (Ctx.engine ctx);
  }

let run ?(metrics = Urm_obs.Metrics.global) ctx q ms =
  let m = Urm_obs.Metrics.scope metrics "basic" in
  let r = run_scoped ~metrics:m ctx q ms in
  Report.record_metrics m r;
  r
