open Urm_relalg

(* The factorized multi-mapping executor: one vectorized pass over the
   e-unit DAG for all h mappings.

   The paper's sharing algorithms all reduce to the same shape — a list of
   distinct e-units, each owed the probability mass of the mappings whose
   reformulation contains it.  This executor compiles each distinct e-unit
   to one plan, executes it exactly once, and streams its result batches
   into the answer with the unit's whole mapping mass added to every
   bucket ([Answer.mass]: the exact sum, one addition per component),
   instead of re-running the plan h times.

   Bit-identity with the interpreted oracles: each bucket receives the
   exact mass of every unit that yields its tuple, whether the unit
   executes, replays the first occurrence's bucket cells or matches a
   recorded stream.  [Answer] sums exactly, so the bits depend neither on
   unit order, nor on how a caller splits the unit list, nor on how the
   mappings are grouped into units. *)

type result = {
  answer : Answer.t;
  units : int;  (* e-units processed (incl. unsatisfiable/trivial) *)
  executed : int;  (* plans actually run *)
  replayed : int;  (* units served from the replay memo *)
  matched : int;  (* executed units whose result stream matched a prior unit *)
  shares : int;  (* DAG subexpressions materialised once *)
  plan_time : float;
  evaluate_time : float;
}

(* The distinct source queries of [q] under [ms], grouped by
   reformulation key in first-seen order, each with its probability
   vector — the unit's row in the mapping→e-unit incidence matrix.  One
   reformulation per q-sharing partition ({!Ptree.representatives}, over
   the context's memoised partition), not per mapping: partitions that
   share a key merge, and the vector lists their members partition by
   partition.  The order of the vector cannot
   change a bit, since each unit adds its exact sum ({!Answer.mass}). *)
let weighted_units (ctx : Ctx.t) q ms =
  let groups = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (sq, members) ->
      let k = Reformulate.key sq in
      match Hashtbl.find_opt groups k with
      | Some cell -> cell := (fst !cell, members :: snd !cell)
      | None ->
        Hashtbl.add groups k (ref (sq, [ members ]));
        order := k :: !order)
    (Ptree.representatives ctx q ms);
  List.rev_map
    (fun k ->
      let sq, parts = !(Hashtbl.find groups k) in
      let probs =
        List.concat_map (List.map (fun m -> m.Mapping.prob)) (List.rev parts)
      in
      (sq, Array.of_list probs))
    !order

(* One unit per partition of mappings known to reformulate alike (the
   q-sharing partition tree), reformulated through its first member and
   carrying every member's probability.  Each equality selection is probed
   once per (source attribute, constant) first, so a unit whose selection
   matches no source row reformulates to [Unsatisfiable] and never
   compiles or runs a plan — same θ / COUNT 0 / SUM Null, at the same unit
   position, as its empty evaluation. *)
let partition_units (ctx : Ctx.t) q partitions =
  let holds = Reformulate.selection_probe ctx.catalog in
  List.map
    (function
      | [] -> invalid_arg "Factorized.partition_units: empty partition"
      | first :: _ as members ->
        ( Reformulate.source_query ~holds ctx.target q first,
          Array.of_list (List.map (fun m -> m.Mapping.prob) members) ))
    partitions

let singleton_units ctx q ms = partition_units ctx q (List.map (fun m -> [ m ]) ms)

let eval ~ctrs ?(cse = false) ?stop (ctx : Ctx.t) q units =
  let acc = Answer.create (Reformulate.output_header q) in
  (* Distinct evaluable bodies, first occurrence per reformulation key —
     the nodes of the e-unit DAG. *)
  let seen = Hashtbl.create 16 in
  let distinct_bodies =
    List.filter_map
      (fun (sq, _) ->
        match sq.Reformulate.body with
        | Reformulate.Expr e ->
          let k = Reformulate.key sq in
          if Hashtbl.mem seen k then None
          else begin
            Hashtbl.add seen k ();
            Some (k, e)
          end
        | Reformulate.Unsatisfiable | Reformulate.Trivial -> None)
      units
  in
  let sw_eval = Urm_util.Timer.Stopwatch.create () in
  (* Cross-unit common-subexpression elimination (e-MQO only): a cheap
     counting pass over the optimised bodies, then one materialisation per
     chosen share.  e-basic keeps [cse = false] — its sharing is exactly
     the per-unit dedup above. *)
  let prepared, shares, plan_time =
    if not cse then (distinct_bodies, 0, 0.)
    else begin
      let opt_bodies =
        List.map (fun (k, e) -> (k, Eval.optimize ctx.catalog e)) distinct_bodies
      in
      let dag, plan_time =
        Urm_util.Timer.time (fun () ->
            Urm_mqo.Dag.build ctx.catalog (List.map snd opt_bodies))
      in
      let table : (string, Relation.t) Hashtbl.t = Hashtbl.create 16 in
      let lookup fp = Hashtbl.find_opt table fp in
      Urm_util.Timer.Stopwatch.timed sw_eval (fun () ->
          List.iter
            (fun s ->
              let r = Ctx.eval ~ctrs ctx (Urm_mqo.Dag.substitute lookup s) in
              Hashtbl.replace table (Algebra.canonical_fingerprint s) r)
            (Urm_mqo.Dag.shares dag));
      let prepared =
        List.map2
          (fun (k, raw) (_, opt) ->
            let sub = Urm_mqo.Dag.substitute lookup opt in
            (* Units untouched by sharing keep their raw body, so their
               plans stay in the cross-algorithm plan cache; substituted
               bodies embed Mat leaves and compile one-shot. *)
            if Algebra.contains_mat sub then (k, sub) else (k, raw))
          distinct_bodies opt_bodies
      in
      (prepared, Urm_mqo.Dag.chosen dag, plan_time)
    end
  in
  let prepared_tbl = Hashtbl.create 16 in
  List.iter (fun (k, e) -> Hashtbl.replace prepared_tbl k e) prepared;
  (* The single pass, in unit order: each distinct e-unit executes once
     and repeated reformulation keys replay. *)
  let memo : (string, Reformulate.recording) Hashtbl.t = Hashtbl.create 16 in
  (* Recordings of executed units with genuinely new result streams, most
     recent first — reversed into execution order when offered as stream
     candidates, so an ambiguous match deterministically prefers the
     earliest unit. *)
  let recordings = ref [] in
  let executed = ref 0 and replayed = ref 0 and matched = ref 0 in
  let visit (sq : Reformulate.t) weights mass =
    match sq.Reformulate.body with
    | Reformulate.Unsatisfiable | Reformulate.Trivial ->
      Reformulate.null_answer_into acc sq
        ~factor:(Reformulate.factor ctx.catalog sq)
        mass
    | Reformulate.Expr _ -> (
      let k = Reformulate.key sq in
      match Hashtbl.find_opt memo k with
      | Some r ->
        incr replayed;
        Reformulate.replay_answers_into acc r mass
      | None ->
        incr executed;
        let e = Hashtbl.find prepared_tbl k in
        let factor = Reformulate.factor ctx.catalog sq in
        let stream = Ctx.eval_wbatches ~ctrs ctx e ~weights in
        let r, stream_matched =
          Reformulate.record_weighted_answers_into acc sq ~factor stream ~mass
            ~candidates:(List.rev !recordings)
        in
        if stream_matched then incr matched
        else recordings := r :: !recordings;
        Hashtbl.add memo k r)
  in
  (* [stop] sees the answer after every unit but the last, with the mass
     of the units not yet visited — kept exact, as a component list, and
     rounded once per check; [true] ends the pass there. *)
  let units = List.map (fun (sq, w) -> (sq, w, Answer.mass w)) units in
  let unvisited =
    ref
      (if Option.is_none stop then []
       else Answer.mass (Array.of_list (List.concat_map (fun (_, _, m) -> m) units)))
  in
  let processed = ref 0 in
  let rec pass = function
    | [] -> ()
    | (sq, weights, mass) :: rest ->
      visit sq weights mass;
      incr processed;
      let stopped =
        match stop with
        | Some stop when rest <> [] ->
          unvisited :=
            Answer.mass (Array.of_list (!unvisited @ List.map Float.neg mass));
          stop acc ~unvisited:(Answer.round !unvisited)
        | _ -> false
      in
      if not stopped then pass rest
  in
  Urm_util.Timer.Stopwatch.timed sw_eval (fun () -> pass units);
  {
    answer = acc;
    units = !processed;
    executed = !executed;
    replayed = !replayed;
    matched = !matched;
    shares;
    plan_time;
    evaluate_time = Urm_util.Timer.Stopwatch.elapsed sw_eval;
  }

(* The one plan-engine entry point of the exact algorithms: they differ
   only in the units [build] returns (and e-MQO/o-sharing in [cse]).
   Counters live under the caller's metrics scope; building the units is
   the rewrite phase, and evaluation fuses aggregation, so the aggregate
   phase reads 0. *)
let run ~metrics ?cse ?stop (ctx : Ctx.t) q build =
  let ctrs = Eval.fresh_counters ~metrics () in
  let units, rewrite = Urm_util.Timer.time build in
  let r = eval ~ctrs ?cse ?stop ctx q units in
  ( Report.make
      ~engine:(Compile.engine_name (Ctx.engine ctx) ^ "+factorized")
      ~answer:r.answer
      ~timings:
        {
          Report.rewrite;
          plan = r.plan_time;
          evaluate = r.evaluate_time;
          aggregate = 0.;
        }
      ~source_operators:ctrs.Eval.operators
      ~rows_produced:ctrs.Eval.rows_produced ~groups:r.units (),
    r )
