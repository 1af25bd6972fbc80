open Urm_relalg

type stats = { eunits : int; memo_hits : int; representatives : int }

(* The interpreted engine runs the paper's Algorithm 2 — the adaptive
   u-trace traversal in {!Eunit}, kept as the differential oracle.  The
   plan engines run the factorized executor over the same representatives
   with cross-unit CSE: the global e-unit DAG subsumes the adaptive
   traversal's operator sharing (every shared subexpression materialises
   exactly once), and the batched single pass is what makes o-sharing
   profit from vectorized execution.  [strategy] only influences the
   interpreted traversal — the DAG pass has no operator-ordering choice. *)
let run_with_stats ?(strategy = Eunit.Sef) ?seed ?use_memo ?tracer
    ?(metrics = Urm_obs.Metrics.global) (ctx : Ctx.t) q ms =
  let m = Urm_obs.Metrics.scope metrics "o-sharing" in
  let mu = Urm_obs.Metrics.scope m "eunit" in
  let reps, rewrite =
    Urm_util.Timer.time (fun () -> Qsharing.representatives ctx q ms)
  in
  Urm_obs.Metrics.incr ~by:(List.length reps)
    (Urm_obs.Metrics.counter mu "representatives");
  match Ctx.engine ctx with
  | Urm_relalg.Compile.Interpreted ->
    let env = Eunit.make_env ?seed ?use_memo ~metrics:m ~strategy ctx q in
    Option.iter (Eunit.set_tracer env) tracer;
    let answer = Answer.create (Reformulate.output_header q) in
    let emit = function
      | Eunit.Tuples (tuples, mass) ->
        List.iter (fun t -> Answer.add answer t mass) tuples;
        true
      | Eunit.Null_answer mass ->
        Answer.add_null answer mass;
        true
    in
    let (_ : bool), evaluate =
      Urm_util.Timer.time (fun () -> Eunit.run_qt env (Eunit.init q reps) ~emit)
    in
    let ctrs = Eunit.counters env in
    let report =
      {
        Report.answer;
        intervals = None;
        timings = { Report.rewrite; plan = 0.; evaluate; aggregate = 0. };
        source_operators = ctrs.Eval.operators;
        rows_produced = ctrs.Eval.rows_produced;
        groups = List.length reps;
        engine = "interpreted";
      }
    in
    Report.record_metrics m report;
    ( report,
      {
        eunits = Eunit.eunits_created env;
        memo_hits = Eunit.memo_hits env;
        representatives = List.length reps;
      } )
  | Urm_relalg.Compile.Vectorized ->
    let ctrs = Eval.fresh_counters ~metrics:m () in
    let units, unit_time =
      Urm_util.Timer.time (fun () -> Factorized.singleton_units ctx q reps)
    in
    let trace fmt = Printf.ksprintf (fun l -> Option.iter (fun f -> f l) tracer) fmt in
    List.iteri
      (fun i ((sq, w) : Reformulate.t * float array) ->
        trace "e-unit #%d (mass %.3f): %s" i (Answer.vec_mass w)
          (Reformulate.key sq))
      units;
    let r = Factorized.eval ~ctrs ~cse:true ctx q units in
    trace "factorized: %d unit(s), %d executed, %d replayed, %d share(s)"
      r.Factorized.units r.Factorized.executed r.Factorized.replayed
      r.Factorized.shares;
    (* Keep the eunit counters agreeing with the stats record, as the
       interpreted path does. *)
    Urm_obs.Metrics.incr ~by:r.Factorized.executed
      (Urm_obs.Metrics.counter mu "executions");
    Urm_obs.Metrics.incr ~by:r.Factorized.replayed
      (Urm_obs.Metrics.counter mu "memo_hits");
    let report =
      Factorized.report ~ctrs ~rewrite:(rewrite +. unit_time)
        ~groups:(List.length reps) ctx r
    in
    Report.record_metrics m report;
    ( report,
      {
        eunits = r.Factorized.executed;
        memo_hits = r.Factorized.replayed;
        representatives = List.length reps;
      } )

let run ?strategy ?seed ?use_memo ?metrics ctx q ms =
  fst (run_with_stats ?strategy ?seed ?use_memo ?metrics ctx q ms)
