open Urm_relalg

type result = {
  report : Report.t;
  visited_eunits : int;
  stopped_early : bool;
  unvisited : float list;
}

(* Both engines fold the same candidates into one {!Answer} and ask [stop]
   the same question after each unit of mass lands; they differ only in
   what a unit is.  The interpreted engine walks o-sharing's u-trace (paper
   Algorithm 4 over Algorithm 2), whose leaves arrive in decreasing
   partition mass along every branch.  The plan engine runs one
   {!Factorized.eval} pass over one unit per q-sharing partition — no CSE,
   which would materialise every share before the first unit — in
   descending mass order, so the bounds tighten as fast as the mapping
   distribution allows. *)

let run_plan ~metrics ~stop (ctx : Ctx.t) q ms =
  let units = ref [] in
  let report, r =
    Factorized.run ~metrics ~stop ctx q (fun () ->
        let by_mass a b =
          Float.compare (Mapping.total_prob b) (Mapping.total_prob a)
        in
        units :=
          Factorized.partition_units ctx q
            (List.stable_sort by_mass (Qsharing.partitions ctx q ms));
        !units)
  in
  let rest = List.filteri (fun i _ -> i >= r.Factorized.units) !units in
  ( report,
    r.Factorized.units,
    rest <> [],
    List.length !units,
    Answer.mass (Array.concat (List.map snd rest)) )

let run_utrace ~metrics ~strategy ?seed ?use_memo ~stop (ctx : Ctx.t) q ms =
  let parts, rewrite =
    Urm_util.Timer.time (fun () -> Qsharing.partitions ctx q ms)
  in
  let env = Eunit.make_env ?seed ?use_memo ~metrics ~strategy ctx q in
  let acc = Answer.create (Reformulate.output_header q) in
  let unvisited =
    ref (Answer.mass (Array.of_list (List.map (fun m -> m.Mapping.prob) ms)))
  in
  let emit leaf =
    let mass =
      match leaf with
      | Eunit.Tuples (tuples, mass) ->
        List.iter (fun t -> Answer.add_exact acc t mass) tuples;
        mass
      | Eunit.Null_answer mass ->
        List.iter (Answer.add_null acc) mass;
        mass
    in
    unvisited :=
      Answer.mass (Array.of_list (!unvisited @ List.map Float.neg mass));
    not (stop acc ~unvisited:(Answer.round !unvisited))
  in
  let finished, evaluate =
    Urm_util.Timer.time (fun () -> Eunit.run_qt env (Eunit.init q parts) ~emit)
  in
  let ctrs = Eunit.counters env in
  ( {
      Report.answer = acc;
      timings = { Report.rewrite; plan = 0.; evaluate; aggregate = 0. };
      source_operators = ctrs.Eval.operators;
      rows_produced = ctrs.Eval.rows_produced;
      groups = List.length parts;
      engine = Compile.engine_name (Ctx.engine ctx);
    },
    Eunit.eunits_created env,
    not finished,
    List.length parts,
    !unvisited )

let run ~scope ?(strategy = Eunit.Sef) ?seed ?use_memo
    ?(metrics = Urm_obs.Metrics.global) ~stop (ctx : Ctx.t) q ms =
  let m = Urm_obs.Metrics.scope metrics scope in
  (* Once no mass is left the pass is over: stopping would only mislabel
     the run as an early stop. *)
  let stop acc ~unvisited = unvisited > Prob.eps && stop acc ~unvisited in
  let report, visited_eunits, stopped_early, reps, unvisited =
    match Ctx.engine ctx with
    | Compile.Interpreted ->
      run_utrace ~metrics:m ~strategy ?seed ?use_memo ~stop ctx q ms
    | Compile.Vectorized -> run_plan ~metrics:m ~stop ctx q ms
  in
  Urm_obs.Metrics.incr ~by:reps
    (Urm_obs.Metrics.counter (Urm_obs.Metrics.scope m "eunit") "representatives");
  Report.record_metrics m report;
  { report; visited_eunits; stopped_early; unvisited }
