open Urm_relalg

(* The factorized multi-mapping executor: one vectorized pass over the
   e-unit DAG for all h mappings.

   The paper's sharing algorithms all reduce to the same shape — a list of
   distinct e-units, each owed the probability mass of the mappings whose
   reformulation contains it.  This executor compiles each distinct e-unit
   to one plan, executes it exactly once, and streams its result batches
   into the answer with the unit's whole mapping-mass weight vector folded
   into every bucket in a single addition ([Answer.add_vec_ref]), instead
   of re-running the plan h times.

   Bit-identity with the interpreted per-unit oracle: units are processed
   in first-seen order (the order [weighted_units] produces), each bucket
   receives exactly one addition of the vector's left-to-right sum per
   unit (the same float the oracle's incremental
   per-mapping sum yields), and units sharing a reformulation key replay
   the first occurrence's bucket cells in unit order — so per-bucket
   addition order matches the sequential interpreted run exactly. *)

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
   reformulation key in first-seen order, each with its per-mapping
   probability vector: the vector (in ascending mapping order) is the
   unit's row in the mapping→e-unit incidence matrix. *)
let weighted_units (ctx : Ctx.t) q ms =
  let groups = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun m ->
      let sq = Reformulate.source_query ctx.target q m in
      let k = Reformulate.key sq in
      match Hashtbl.find_opt groups k with
      | Some cell -> cell := (fst !cell, m.Mapping.prob :: snd !cell)
      | None ->
        Hashtbl.add groups k (ref (sq, [ m.Mapping.prob ]));
        order := k :: !order)
    ms;
  List.rev_map
    (fun k ->
      let sq, ws = !(Hashtbl.find groups k) in
      (sq, Array.of_list (List.rev ws)))
    !order

(* One unit per mapping, degenerate weight vector — basic, and q-sharing
   over its representatives (each already carries its partition's mass):
   the per-mapping accumulation order is preserved, and repeated
   reformulation keys replay instead of re-executing.  Each equality
   selection is probed once per (source attribute, constant) first, so a
   mapping whose selection matches no source row reformulates to
   [Unsatisfiable] and never compiles or runs a plan — same θ / COUNT 0 /
   SUM Null, at the same unit position, as its empty evaluation. *)
let singleton_units (ctx : Ctx.t) q ms =
  let holds = Reformulate.selection_probe ctx.catalog in
  List.map
    (fun m ->
      (Reformulate.source_query ~holds ctx.target q m, [| m.Mapping.prob |]))
    ms

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
  (* The single pass: ascending unit order, executing each distinct e-unit
     once and replaying repeated reformulation keys, so per-bucket addition
     order is the sequential oracle's. *)
  let memo : (string, Reformulate.recording) Hashtbl.t = Hashtbl.create 16 in
  (* Recordings of executed units with genuinely new result streams, most
     recent first — reversed into execution order when offered as stream
     candidates, so an ambiguous match deterministically prefers the
     earliest unit. *)
  let recordings = ref [] in
  let executed = ref 0 and replayed = ref 0 and matched = ref 0 in
  let visit ((sq, weights) : Reformulate.t * float array) =
    let mass = Answer.vec_mass weights in
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
          Reformulate.record_weighted_answers_into acc sq ~factor stream
            ~weights ~candidates:(List.rev !recordings)
        in
        if stream_matched then incr matched
        else recordings := r :: !recordings;
        Hashtbl.add memo k r)
  in
  (* [stop] sees the answer after every unit but the last, with the mass
     of the units not yet visited; [true] ends the pass there. *)
  let processed = ref 0 in
  let rec pass unvisited = function
    | [] -> ()
    | ((_, weights) as unit) :: rest ->
      visit unit;
      incr processed;
      let unvisited = unvisited -. Answer.vec_mass weights in
      let stopped =
        match stop with
        | Some stop -> rest <> [] && stop acc ~unvisited
        | None -> false
      in
      if not stopped then pass unvisited rest
  in
  let total =
    List.fold_left (fun acc (_, w) -> acc +. Answer.vec_mass w) 0. units
  in
  Urm_util.Timer.Stopwatch.timed sw_eval (fun () -> pass total units);
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
