open Urm_relalg

type result = {
  report : Report.t;
  visited_eunits : int;
  stopped_early : bool;
}

(* Both engines fold the same candidates into one {!Answer} and ask [stop]
   the same question after each unit of mass lands; they differ only in
   what a unit is.  The interpreted engine walks o-sharing's u-trace (paper
   Algorithm 4 over Algorithm 2), whose leaves arrive in decreasing
   partition mass along every branch.  The plan engine runs one
   {!Factorized.eval} pass over o-sharing's representatives as singleton
   units — no CSE, which would materialise every share before the first
   unit — in descending mass order, so the bounds tighten as fast as the
   mapping distribution allows. *)

let by_descending_mass units =
  List.stable_sort
    (fun (_, a) (_, b) -> Float.compare (Answer.vec_mass b) (Answer.vec_mass a))
    units

let run_plan ~metrics ~stop (ctx : Ctx.t) q ms =
  let n_units = ref 0 in
  let report, r =
    Factorized.run ~metrics ~stop ctx q (fun () ->
        let units =
          by_descending_mass
            (Factorized.singleton_units ctx q (Qsharing.representatives ctx q ms))
        in
        n_units := List.length units;
        units)
  in
  (report, r.Factorized.units, r.Factorized.units < !n_units, !n_units)

let run_utrace ~metrics ~strategy ?seed ?use_memo ~stop (ctx : Ctx.t) q ms =
  let reps, rewrite =
    Urm_util.Timer.time (fun () -> Qsharing.representatives ctx q ms)
  in
  let env = Eunit.make_env ?seed ?use_memo ~metrics ~strategy ctx q in
  let acc = Answer.create (Reformulate.output_header q) in
  let unvisited = ref (Mapping.total_prob reps) in
  let emit leaf =
    let mass =
      match leaf with
      | Eunit.Tuples (tuples, mass) ->
        List.iter (fun t -> Answer.add acc t mass) tuples;
        mass
      | Eunit.Null_answer mass ->
        Answer.add_null acc mass;
        mass
    in
    unvisited := !unvisited -. mass;
    (* Once no mass is left the traversal is over: stopping would only
       mislabel the run as an early stop. *)
    not (!unvisited > Prob.eps && stop acc ~unvisited:!unvisited)
  in
  let finished, evaluate =
    Urm_util.Timer.time (fun () -> Eunit.run_qt env (Eunit.init q reps) ~emit)
  in
  let ctrs = Eunit.counters env in
  ( {
      Report.answer = acc;
      intervals = None;
      timings = { Report.rewrite; plan = 0.; evaluate; aggregate = 0. };
      source_operators = ctrs.Eval.operators;
      rows_produced = ctrs.Eval.rows_produced;
      groups = List.length reps;
      engine = Compile.engine_name (Ctx.engine ctx);
    },
    Eunit.eunits_created env,
    not finished,
    List.length reps )

let run ~scope ?(strategy = Eunit.Sef) ?seed ?use_memo
    ?(metrics = Urm_obs.Metrics.global) ~stop ~finish (ctx : Ctx.t) q ms =
  let m = Urm_obs.Metrics.scope metrics scope in
  let report, visited_eunits, stopped_early, reps =
    match Ctx.engine ctx with
    | Compile.Interpreted ->
      run_utrace ~metrics:m ~strategy ?seed ?use_memo ~stop ctx q ms
    | Compile.Vectorized -> run_plan ~metrics:m ~stop ctx q ms
  in
  Urm_obs.Metrics.incr ~by:reps
    (Urm_obs.Metrics.counter (Urm_obs.Metrics.scope m "eunit") "representatives");
  let report = { report with Report.answer = finish report.Report.answer } in
  Report.record_metrics m report;
  { report; visited_eunits; stopped_early }
