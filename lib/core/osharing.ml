open Urm_relalg

type stats = { eunits : int; memo_hits : int; representatives : int }

(* The interpreted engine runs the paper's Algorithm 2 — the adaptive
   u-trace traversal in {!Eunit}, kept as the differential oracle.  The
   plan engines run the factorized executor over one unit per q-sharing
   partition with cross-unit CSE: the global e-unit DAG subsumes the adaptive
   traversal's operator sharing (every shared subexpression materialises
   exactly once), and the batched single pass is what makes o-sharing
   profit from vectorized execution.  [strategy], [seed] and [use_memo]
   only steer the interpreted traversal — the DAG pass has no
   operator-ordering choice and no u-trace to memoise. *)
let run_with_stats ?(strategy = Eunit.Sef) ?seed ?use_memo ?tracer
    ?(metrics = Urm_obs.Metrics.global) (ctx : Ctx.t) q ms =
  let m = Urm_obs.Metrics.scope metrics "o-sharing" in
  let mu = Urm_obs.Metrics.scope m "eunit" in
  let count name n =
    Urm_obs.Metrics.incr ~by:n (Urm_obs.Metrics.counter mu name)
  in
  let report, stats =
    match Ctx.engine ctx with
    | Urm_relalg.Compile.Interpreted ->
      let parts, rewrite =
        Urm_util.Timer.time (fun () -> Qsharing.partitions ctx q ms)
      in
      count "representatives" (List.length parts);
      let env = Eunit.make_env ?seed ?use_memo ~metrics:m ~strategy ctx q in
      Option.iter (Eunit.set_tracer env) tracer;
      let answer = Answer.create (Reformulate.output_header q) in
      let emit = function
        | Eunit.Tuples (tuples, mass) ->
          List.iter (fun t -> Answer.add_exact answer t mass) tuples;
          true
        | Eunit.Null_answer mass ->
          List.iter (Answer.add_null answer) mass;
          true
      in
      let (_ : bool), evaluate =
        Urm_util.Timer.time (fun () -> Eunit.run_qt env (Eunit.init q parts) ~emit)
      in
      let ctrs = Eunit.counters env in
      ( {
          Report.answer;
          timings = { Report.rewrite; plan = 0.; evaluate; aggregate = 0. };
          source_operators = ctrs.Eval.operators;
          rows_produced = ctrs.Eval.rows_produced;
          groups = List.length parts;
          engine = "interpreted";
        },
        {
          eunits = Eunit.eunits_created env;
          memo_hits = Eunit.memo_hits env;
          representatives = List.length parts;
        } )
    | Urm_relalg.Compile.Vectorized ->
      let trace fmt =
        Printf.ksprintf (fun l -> Option.iter (fun f -> f l) tracer) fmt
      in
      let report, r =
        Factorized.run ~metrics:m ~cse:true ctx q (fun () ->
            let units =
              Factorized.partition_units ctx q (Qsharing.partitions ctx q ms)
            in
            if Option.is_some tracer then
              List.iteri
                (fun i ((sq, w) : Reformulate.t * float array) ->
                  trace "e-unit #%d (mass %.3f): %s" i
                    (Answer.round (Answer.mass w))
                    (Reformulate.key sq))
                units;
            units)
      in
      trace "factorized: %d unit(s), %d executed, %d replayed, %d share(s)"
        r.Factorized.units r.Factorized.executed r.Factorized.replayed
        r.Factorized.shares;
      (* Keep the eunit counters agreeing with the stats record, as the
         interpreted path does. *)
      count "representatives" r.Factorized.units;
      count "executions" r.Factorized.executed;
      count "memo_hits" r.Factorized.replayed;
      ( report,
        {
          eunits = r.Factorized.executed;
          memo_hits = r.Factorized.replayed;
          representatives = r.Factorized.units;
        } )
  in
  Report.record_metrics m report;
  (report, stats)

let run ?strategy ?seed ?use_memo ?metrics ctx q ms =
  fst (run_with_stats ?strategy ?seed ?use_memo ?metrics ctx q ms)
