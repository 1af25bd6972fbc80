open Urm_relalg

(* The budgeted Monte-Carlo engine.

   One draw = one possible world: a mapping sampled from the alias table
   over Pr(mi) (O(1) per draw), evaluated through the context's engine.
   Evaluation is memoised at two levels — per mapping id, and beneath it
   per reformulation key — so a draw that repeats a mapping costs two
   hashtable hits, and a fresh mapping whose reformulation shape was
   already evaluated (common under fine-grained mapping sets, where most
   mappings agree on the attributes a query touches) costs one plan-free
   rewrite.  Per-tuple probabilities are sample frequencies wrapped in
   Wilson score intervals at confidence 1−δ. *)

let z_of_delta delta = Urm_util.Stats.normal_quantile (1. -. (delta /. 2.))

type view = {
  n : int;
  z : float;
  counts : (Value.t array, int ref) Hashtbl.t Lazy.t;
      (* materialised from the per-shape tallies on first force — deciders
         that fail a cheap test first (unseen_hi, n) never pay for it;
         read-only for deciders *)
  null_count : int;
  unseen_hi : float;
}

let interval view count =
  Urm_util.Stats.wilson_interval ~positives:count ~n:view.n ~z:view.z

type raw = {
  view : view;
  samples : int;
  shapes : int;  (* distinct reformulation shapes evaluated *)
  stop_reason : Budget.stop_reason;
  timings : Urm.Report.timings;
  operators : int;
  rows_produced : int;
}

(* [drive ?seed ~metrics ~budget ~decide ctx q ms] the sampling loop.
   [decide] is consulted every [budget.batch] draws (and once at the end);
   returning [true] stops the run with [Converged]. *)
let drive ?(seed = 17) ~metrics ~budget ~decide (ctx : Urm.Ctx.t) q ms =
  Budget.validate budget;
  if ms = [] then invalid_arg "Anytime: empty mapping set";
  let t0 = Urm_util.Timer.now () in
  let arr = Array.of_list ms in
  let table = Array.map (fun m -> m.Urm.Mapping.prob) arr |> Urm_util.Alias.create in
  (* [split] detaches the sampling stream from the seed stream, so further
     independent streams (e.g. parallel estimators) can be split off the
     same root without correlating with this one. *)
  let rng = Urm_util.Prng.split (Urm_util.Prng.create seed) in
  let z = z_of_delta budget.Budget.delta in
  let ctrs = Eval.fresh_counters ~metrics () in
  let sw_rewrite = Urm_util.Timer.Stopwatch.create () in
  let sw_evaluate = Urm_util.Timer.Stopwatch.create () in
  let sw_decide = Urm_util.Timer.Stopwatch.create () in
  (* Two-level answer memo: mapping id → reformulation shape → target
     tuples (the same replay discipline as the factorized executor's
     replay memo).  Draws are tallied per *shape* — O(1) per draw no matter
     how large the answers are — and the per-tuple counts the deciders need
     are materialised from the shape tallies once per batch in [view]. *)
  let by_shape : (string, Value.t array list) Hashtbl.t = Hashtbl.create 64 in
  let shape_of_mapping : (int, string) Hashtbl.t =
    Hashtbl.create (min 4096 (Array.length arr))
  in
  let shape_of m =
    match Hashtbl.find_opt shape_of_mapping m.Urm.Mapping.id with
    | Some key -> key
    | None ->
      Urm_util.Timer.Stopwatch.start sw_rewrite;
      let sq = Urm.Reformulate.source_query ctx.Urm.Ctx.target q m in
      let key = Urm.Reformulate.key sq in
      Urm_util.Timer.Stopwatch.stop sw_rewrite;
      if not (Hashtbl.mem by_shape key) then begin
        Urm_util.Timer.Stopwatch.start sw_evaluate;
        let rel =
          match sq.Urm.Reformulate.body with
          | Urm.Reformulate.Expr e -> Some (Urm.Ctx.eval ~ctrs ctx e)
          | Urm.Reformulate.Unsatisfiable | Urm.Reformulate.Trivial -> None
        in
        let tuples =
          Urm.Reformulate.result_tuples sq
            ~factor:(Urm.Reformulate.factor ctx.Urm.Ctx.catalog sq)
            rel
        in
        Urm_util.Timer.Stopwatch.stop sw_evaluate;
        Hashtbl.replace by_shape key tuples
      end;
      Hashtbl.replace shape_of_mapping m.Urm.Mapping.id key;
      key
  in
  let shape_counts : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let null_count = ref 0 in
  let n = ref 0 in
  let materialise_counts () =
    let counts : (Value.t array, int ref) Hashtbl.t = Hashtbl.create 64 in
    Hashtbl.iter
      (fun key c ->
        List.iter
          (fun t ->
            match Hashtbl.find_opt counts t with
            | Some r -> r := !r + !c
            | None -> Hashtbl.add counts t (ref !c))
          (Hashtbl.find by_shape key))
      shape_counts;
    counts
  in
  let cap =
    match (budget.Budget.max_samples, budget.Budget.deadline) with
    | Some s, _ -> s
    | None, Some _ -> max_int
    | None, None -> Budget.unbounded_cap
  in
  let view () =
    {
      n = !n;
      z;
      counts = lazy (materialise_counts ());
      null_count = !null_count;
      unseen_hi =
        (if !n = 0 then 1.
         else snd (Urm_util.Stats.wilson_interval ~positives:0 ~n:!n ~z));
    }
  in
  let deadline_hit () =
    match budget.Budget.deadline with
    | None -> false
    | Some d -> Urm_util.Timer.now () -. t0 >= d
  in
  let stop_reason = ref Budget.Samples_exhausted in
  (try
     while !n < cap do
       let burst = min budget.Budget.batch (cap - !n) in
       for _ = 1 to burst do
         let m = arr.(Urm_util.Alias.draw table rng) in
         let key = shape_of m in
         (match Hashtbl.find by_shape key with
         | [] -> incr null_count
         | _ -> (
           match Hashtbl.find_opt shape_counts key with
           | Some r -> incr r
           | None -> Hashtbl.add shape_counts key (ref 1)));
         incr n
       done;
       if deadline_hit () then begin
         stop_reason := Budget.Deadline_reached;
         raise Exit
       end;
       Urm_util.Timer.Stopwatch.start sw_decide;
       let converged = decide (view ()) in
       Urm_util.Timer.Stopwatch.stop sw_decide;
       if converged then begin
         stop_reason := Budget.Converged;
         raise Exit
       end
     done
   with Exit -> ());
  let samples_counter = Urm_obs.Metrics.counter metrics "samples" in
  Urm_obs.Metrics.incr ~by:!n samples_counter;
  Urm_obs.Metrics.incr ~by:(Hashtbl.length by_shape)
    (Urm_obs.Metrics.counter metrics "shapes");
  Urm_obs.Metrics.incr
    (Urm_obs.Metrics.counter metrics
       ("stop." ^ Budget.stop_reason_name !stop_reason));
  {
    view = view ();
    samples = !n;
    shapes = Hashtbl.length by_shape;
    stop_reason = !stop_reason;
    timings =
      {
        Urm.Report.rewrite = Urm_util.Timer.Stopwatch.elapsed sw_rewrite;
        plan = 0.;
        evaluate = Urm_util.Timer.Stopwatch.elapsed sw_evaluate;
        aggregate = Urm_util.Timer.Stopwatch.elapsed sw_decide;
      };
    operators = ctrs.Eval.operators;
    rows_produced = ctrs.Eval.rows_produced;
  }

(* Record the final interval spread under the metrics scope: max and mean
   full widths over the observed tuples (θ included). *)
let record_widths metrics raw =
  let widths =
    Hashtbl.fold
      (fun _ c acc ->
        let lo, hi = interval raw.view !c in
        (hi -. lo) :: acc)
      (Lazy.force raw.view.counts)
      (if raw.view.n = 0 then []
       else
         let lo, hi = interval raw.view raw.view.null_count in
         [ hi -. lo ])
  in
  match widths with
  | [] -> ()
  | _ ->
    Urm_obs.Metrics.record
      (Urm_obs.Metrics.timer metrics "interval.max_width")
      (List.fold_left Float.max 0. widths);
    Urm_obs.Metrics.record
      (Urm_obs.Metrics.timer metrics "interval.mean_width")
      (Urm_util.Stats.mean widths)

type result = {
  report : Urm.Report.t;
  samples : int;
  shapes : int;
  stop_reason : Budget.stop_reason;
  null_interval : float * float;
  unseen_hi : float;
}

(* Plain-estimate convergence: every observed tuple's interval (and θ's,
   and the bound on any still-unseen tuple) has half-width ≤ ε. *)
let width_decide ~epsilon view =
  view.n > 0
  && view.unseen_hi <= 2. *. epsilon
  &&
  let ok count =
    let lo, hi = interval view count in
    hi -. lo <= 2. *. epsilon
  in
  ok view.null_count
  && Hashtbl.fold (fun _ c acc -> acc && ok !c) (Lazy.force view.counts) true

let result_of_raw ~metrics q raw =
  let view = raw.view in
  let total = float_of_int (max 1 view.n) in
  let answer = Urm.Answer.create (Urm.Reformulate.output_header q) in
  let intervals =
    Hashtbl.fold
      (fun t c acc ->
        Urm.Answer.add answer t (float_of_int !c /. total);
        (t, interval view !c) :: acc)
      (Lazy.force view.counts) []
  in
  Urm.Answer.add_null answer (float_of_int view.null_count /. total);
  let report =
    Urm.Report.make ~intervals ~answer ~timings:raw.timings
      ~source_operators:raw.operators ~rows_produced:raw.rows_produced
      ~groups:raw.shapes ()
  in
  Urm.Report.record_metrics metrics report;
  record_widths metrics raw;
  {
    report;
    samples = raw.samples;
    shapes = raw.shapes;
    stop_reason = raw.stop_reason;
    null_interval =
      (if view.n = 0 then (0., 1.) else interval view view.null_count);
    unseen_hi = view.unseen_hi;
  }

let run ?seed ?(metrics = Urm_obs.Metrics.global) ?(budget = Budget.default)
    (ctx : Urm.Ctx.t) q ms =
  let m = Urm_obs.Metrics.scope metrics "anytime" in
  let raw =
    drive ?seed ~metrics:m ~budget
      ~decide:(width_decide ~epsilon:budget.Budget.epsilon)
      ctx q ms
  in
  result_of_raw ~metrics:m q raw
