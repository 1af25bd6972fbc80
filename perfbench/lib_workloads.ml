(* The in-process library workloads: q4-answers and wide-h.

   Both call the algorithms exactly as a library user would
   ({!Urm.Algorithms.run}, {!Urm.Topk.run}) on the default vectorized
   engine.  Every answer is checked against an interpreted e-basic oracle
   computed during set-up: sharing answers byte for byte, basic within
   {!Urm.Prob.eps}, top-k by validity against the oracle plus byte
   identity with the first top-k run. *)

open Common
module P = Urm_workload.Pipeline
module A = Urm.Algorithms

type alg = Basic | Ebasic | Emqo | Qsharing | Osharing | Topk5

let alg_name = function
  | Basic -> "basic"
  | Ebasic -> "e-basic"
  | Emqo -> "e-MQO"
  | Qsharing -> "q-sharing"
  | Osharing -> "o-sharing/SEF"
  | Topk5 -> "top-5/SEF"

let algorithm = function
  | Basic -> A.Basic
  | Ebasic -> A.Ebasic
  | Emqo -> A.Emqo
  | Qsharing -> A.Qsharing
  | Osharing | Topk5 -> A.Osharing Urm.Eunit.Sef

let render a = Json.to_string (Urm.Answer.to_json a)

type target = {
  qname : string;
  ctx : Urm.Ctx.t;
  ms : Urm.Mapping.t list;
  q : Urm.Query.t;
  oracle : Urm.Answer.t;  (** interpreted e-basic *)
  oracle_list : (Urm_relalg.Value.t array * float) array;
  bytes : alg list;  (** algorithms promised byte identity with the oracle *)
  mutable topk_bytes : string option;  (** the first top-5 run, rendered *)
}

(* [perturb] (the self-test) moves the first answer tuple's probability by
   1e-6 before the check, which every gate must notice. *)
let perturb_flag = ref false

let perturbed a =
  (if !perturb_flag then
     match Urm.Answer.to_list a with
     | (t, _) :: _ -> Urm.Answer.add a t 1e-6
     | [] -> Urm.Answer.add_null a 1e-6);
  a

(* Byte identity without rendering: the rendered answer is a function of
   its tuple set, the tuples' probabilities and θ, so a same-size answer
   holding every expected tuple at a bit-identical probability renders to
   the expected bytes. *)
let bit_identical expected ~null answer =
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  Urm.Answer.size answer = Array.length expected
  && same (Urm.Answer.null_prob answer) null
  && Array.for_all (fun (t, p) -> same (Urm.Answer.prob_of answer t) p) expected

(* Every answer must equal the interpreted e-basic oracle within eps
   ({!Urm.Answer.equal}); the algorithms in [tg.bytes] must also match it
   byte for byte. *)
let check_exact tg alg answer () =
  let answer = perturbed answer in
  if not (Urm.Answer.equal answer tg.oracle) then
    Some (Printf.sprintf "%s %s differs from the oracle beyond eps" tg.qname (alg_name alg))
  else if
    List.mem alg tg.bytes
    && not (bit_identical tg.oracle_list ~null:(Urm.Answer.null_prob tg.oracle) answer)
  then Some (Printf.sprintf "%s %s differs from the oracle's bytes" tg.qname (alg_name alg))
  else None

(* A top-k answer is valid when it has min(k, |answer|) tuples, each a
   genuine top-k member of the oracle (probability at least the oracle's
   k-th, within eps) reported with a lower bound not above its oracle
   probability.  Later runs must also repeat the first run byte for byte. *)
let check_topk tg ~k answer () =
  let answer = perturbed answer in
  let got = Urm.Answer.to_list answer in
  let best = Urm.Answer.top_k tg.oracle k in
  let kth = match List.rev best with (_, p) :: _ -> p | [] -> 0. in
  let eps = Urm.Prob.eps in
  let valid =
    List.length got = List.length best
    && List.for_all
         (fun (t, lb) ->
           let p = Urm.Answer.prob_of tg.oracle t in
           p >= kth -. eps && lb <= p +. eps)
         got
  in
  let bytes = render answer in
  match tg.topk_bytes with
  | _ when not valid -> Some (tg.qname ^ " top-k is not a valid top-k of the oracle")
  | Some b when not (String.equal b bytes) -> Some (tg.qname ^ " top-k changed between runs")
  | Some _ -> None
  | None ->
    tg.topk_bytes <- Some bytes;
    None

(* ------------------------------------------------------------------ *)
(* Traced forms: the same answers through the layers' public calls. *)

(* Executes the plans {!Urm.Factorized.eval} runs for [units], streaming
   every batch into a no-op sink: each distinct evaluable unit once and,
   with [cse], the shared subexpressions materialised first and
   substituted into the unit bodies, as the factorized e-MQO does.  Returns
   the execution seconds; the DAG construction is left out (it is the
   executor's [plan_time]). *)
let exec_probe ?(ctrs = Urm_relalg.Eval.fresh_counters ()) ?(weighted = true) ?(cse = false) ctx units =
  let seen = Hashtbl.create 16 in
  let bodies =
    List.filter_map
      (fun ((sq : Urm.Reformulate.t), weights) ->
        match sq.Urm.Reformulate.body with
        | Urm.Reformulate.Expr e ->
          let k = Urm.Reformulate.key sq in
          if Hashtbl.mem seen k then None
          else begin
            Hashtbl.add seen k ();
            Some (e, weights)
          end
        | Urm.Reformulate.Unsatisfiable | Urm.Reformulate.Trivial -> None)
      units
  in
  let catalog = ctx.Urm.Ctx.catalog in
  let optimised = List.map (fun (e, _) -> if cse then Urm_relalg.Eval.optimize catalog e else e) bodies in
  let dag = if cse then Urm_mqo.Dag.build catalog optimised else Urm_mqo.Dag.empty in
  let table = Hashtbl.create 16 in
  let lookup fp = Hashtbl.find_opt table fp in
  let t0 = now () in
  List.iter
    (fun s ->
      Hashtbl.replace table (Urm_relalg.Algebra.canonical_fingerprint s)
        (Urm.Ctx.eval ~ctrs ctx (Urm_mqo.Dag.substitute lookup s)))
    (Urm_mqo.Dag.shares dag);
  List.iter2
    (fun (raw, weights) opt ->
      let e =
        if not cse then raw
        else
          let sub = Urm_mqo.Dag.substitute lookup opt in
          if Urm_relalg.Algebra.contains_mat sub then sub else raw
      in
      if weighted then snd (Urm.Ctx.eval_wbatches ~ctrs ctx e ~weights) (fun _ -> ())
      else snd (Urm.Ctx.eval_batches ~ctrs ctx e) (fun _ -> ()))
    bodies optimised;
  now () -. t0

let count_ctrs (ctrs : Urm_relalg.Eval.counters) =
  Trace.count "relalg.rows" (float_of_int ctrs.Urm_relalg.Eval.rows_produced);
  Trace.count "relalg.source_ops" (float_of_int ctrs.Urm_relalg.Eval.operators)

(* Basic as one opaque call ({!Urm.Algorithms.run}).  Its reformulation
   and plan execution are timed by probes re-running the same public
   calls — every mapping's {!Urm.Reformulate.source_query} and key, then
   each distinct reformulation's plan into a no-op sink — and become
   children of the call's span, which keeps the answer fold and the
   replays as its self time. *)
let traced_basic tg =
  let ctx = tg.ctx and q = tg.q and ms = tg.ms in
  let report, fold = Trace.span_id "answer.fold" (fun () -> A.run A.Basic ctx q ms) in
  let units, rewrite =
    Trace.probe (fun () ->
        List.map
          (fun m ->
            let sq = Urm.Reformulate.source_query ctx.Urm.Ctx.target q m in
            ignore (Urm.Reformulate.key sq);
            (sq, [| m.Urm.Mapping.prob |]))
          ms)
  in
  ignore (Trace.attach ~parent:fold "reformulate" rewrite);
  let ctrs = Urm_relalg.Eval.fresh_counters () in
  let exec = fst (Trace.probe (fun () -> exec_probe ~ctrs ~weighted:false ctx units)) in
  ignore (Trace.attach ~parent:fold "relalg.exec" exec);
  Trace.count "reformulate.units" (float_of_int (List.length ms));
  count_ctrs ctrs;
  Trace.count "answer.tuples" (float_of_int (Urm.Answer.size report.Urm.Report.answer));
  report.Urm.Report.answer

let count_factorized ctrs (r : Urm.Factorized.result) ~units =
  Trace.count "reformulate.units" (float_of_int units);
  Trace.count "factorized.executed" (float_of_int r.Urm.Factorized.executed);
  Trace.count "factorized.replayed" (float_of_int r.Urm.Factorized.replayed);
  Trace.count "factorized.matched" (float_of_int r.Urm.Factorized.matched);
  count_ctrs ctrs;
  Trace.count "answer.tuples" (float_of_int (Urm.Answer.size r.Urm.Factorized.answer))

let count_topk (r : Urm.Topk.result) =
  Trace.count "topk.visited_eunits" (float_of_int r.Urm.Topk.visited_eunits);
  Trace.count "topk.runs" 1.;
  Trace.count "topk.stopped_early" (if r.Urm.Topk.stopped_early then 1. else 0.)

let traced_sharing tg alg =
  let ctx = tg.ctx and q = tg.q and ms = tg.ms in
  let ctrs = Urm_relalg.Eval.fresh_counters () in
  let units =
    Trace.span "reformulate" (fun () ->
        match alg with
        | Ebasic | Emqo -> Urm.Factorized.weighted_units ctx q ms
        | _ ->
          let reps = Urm.Ptree.represent (Urm.Ptree.partition ctx.Urm.Ctx.target q ms) in
          Urm.Factorized.singleton_units ctx q reps)
  in
  let cse = alg = Emqo || alg = Osharing in
  let r, fold = Trace.span_id "answer.fold" (fun () -> Urm.Factorized.eval ~ctrs ~cse ctx q units) in
  ignore (Trace.attach ~parent:fold "mqo.plan" r.Urm.Factorized.plan_time);
  ignore (Trace.attach ~parent:fold "relalg.exec" (fst (Trace.probe (fun () -> exec_probe ~cse ctx units))));
  count_factorized ctrs r ~units:(List.length units);
  r.Urm.Factorized.answer

let topk tg =
  let r = Trace.span "topk" (fun () -> Urm.Topk.run ~k:5 tg.ctx tg.q tg.ms) in
  count_topk r;
  r.Urm.Topk.report.Urm.Report.answer

let op tg alg =
  match alg with
  | Topk5 ->
    { cls = "topk"; run = (fun () -> check_topk tg ~k:5 (topk tg)) }
  | _ ->
    let a = algorithm alg in
    {
      cls = "query";
      run =
        (fun () ->
          let answer =
            if not !Trace.on then (A.run a tg.ctx tg.q tg.ms).Urm.Report.answer
            else if alg = Basic then traced_basic tg
            else traced_sharing tg alg
          in
          check_exact tg alg answer);
    }

(* ------------------------------------------------------------------ *)
(* Set-up *)

type setup = {
  pipeline : P.t;
  generate_s : float;
  mappings_s : float;
  total_s : float;
}

(* One set-up as a user pays it: generate the instance, match and
   enumerate the h-best mappings per target, build the contexts. *)
let setup_once ~scale ~h targets =
  let t0 = now () in
  let pipeline = P.create ~seed:42 ~scale () in
  let t1 = now () in
  List.iter
    (fun t ->
      ignore (P.mappings pipeline t ~h);
      ignore (P.ctx pipeline t))
    targets;
  let t2 = now () in
  { pipeline; generate_s = t1 -. t0; mappings_s = t2 -. t1; total_s = t2 -. t0 }

let build_target pipeline ~h ~bytes (qname, schema, q) =
  let ms = P.mappings pipeline schema ~h in
  let oracle =
    (A.run A.Ebasic (P.ctx ~engine:Urm_relalg.Compile.Interpreted pipeline schema) q ms)
      .Urm.Report.answer
  in
  {
    qname;
    ctx = P.ctx pipeline schema;
    ms;
    q;
    oracle;
    oracle_list = Array.of_list (Urm.Answer.to_list oracle);
    (* A SUM's value is itself a float whose rounding depends on the
       engine's summation order, so SUM answers are only eps-comparable. *)
    bytes =
      (match q.Urm.Query.aggregate with Some (Urm.Query.Sum _) -> [] | _ -> bytes);
    topk_bytes = None;
  }

type spec = {
  scale : float;
  h : int;
  repeats : int;  (** set-ups measured for setup_s *)
  queries : string list;
  algs : alg list;  (** one round = every (query, alg) pair *)
  bytes : alg list;
      (** byte-identical to the oracle: the factorized executor's contract
          on Q4 (BENCH_share); at h = 1000 only e-basic keeps it, the
          partition-based sharing algorithms sum masses in another order *)
  topk_queries : string list;
}

let q4_answers =
  {
    scale = 0.03;
    h = 100;
    repeats = 3;
    queries = [ "Q4" ];
    algs = [ Basic; Ebasic; Emqo; Qsharing; Osharing ];
    bytes = [ Ebasic; Emqo; Qsharing; Osharing ];
    topk_queries = [ "Q4" ];
  }

let wide_h =
  {
    scale = 0.03;
    h = 1000;
    repeats = 1;
    queries = [ "Q1"; "Q2"; "Q5"; "Q6"; "Q8"; "Q9"; "Q10" ];
    algs = [ Basic; Ebasic; Osharing ];
    bytes = [ Ebasic ];
    topk_queries = [ "Q1"; "Q2"; "Q6"; "Q8" ];
  }

let run (spec : spec) ~seed ~seconds ~trace =
  let by_name n =
    let schema, q = Urm_workload.Queries.by_name n in
    (n, schema, q)
  in
  let queries = List.map by_name spec.queries in
  let schemas =
    List.sort_uniq compare (List.map (fun (_, s, _) -> s.Urm_relalg.Schema.sname) queries)
    |> List.map Urm_workload.Targets.by_name
  in
  (* Set-ups run one after another; only the last one's pipeline stays
     reachable, and the heap is compacted after each earlier one. *)
  let pipeline, times =
    let rec go i times =
      let s = setup_once ~scale:spec.scale ~h:spec.h schemas in
      let times = (s.generate_s, s.mappings_s, s.total_s) :: times in
      if i = spec.repeats then (s.pipeline, times)
      else begin
        Gc.compact ();
        go (i + 1) times
      end
    in
    go 1 []
  in
  let med f = median (List.map f times) in
  let targets = List.map (build_target pipeline ~h:spec.h ~bytes:spec.bytes) queries in
  let find n = List.find (fun tg -> tg.qname = n) targets in
  let all_ops =
    List.concat_map (fun tg -> List.map (op tg) spec.algs) targets
    @ List.map (fun n -> op (find n) Topk5) spec.topk_queries
  in
  let rounds r = shuffle ~seed ~round:r all_ops in
  (* Warm-up: plan cache, column memo and hash-join build tables. *)
  let warm = fresh_stats () in
  ignore (drive warm ~rounds ~from:(-1) ~max_rounds:1 ());
  Gc.compact ();
  let st = fresh_stats () in
  st.attempted <- warm.attempted;
  st.failed <- warm.failed;
  let host = host_start () in
  let plan0 = List.map (fun tg -> Urm.Ctx.plan_stats tg.ctx) targets in
  let done_rounds = drive st ~rounds ~from:0 ~seconds:(if trace then seconds /. 2. else seconds) () in
  let untraced_host = host_metrics host st in
  let e2e =
    [
      metric "setup_s" "s" (med (fun (_, _, total) -> total));
      metric "ops_per_s" "ops/s" (ops_per_s st);
      metric "query_p50_ms" "ms" (ms (percentile 0.5 (samples st "query")));
      metric "query_p90_ms" "ms" (ms (percentile 0.9 (samples st "query")));
      metric "topk_p50_ms" "ms" (ms (percentile 0.5 (samples st "topk")));
      metric "peak_rss_mb" "MiB" (vm_hwm_mb "self");
    ]
  in
  if not trace then (st, e2e, untraced_host)
  else begin
    let ust, tst = interleaved st ~rounds ~from:done_rounds ~n:(max 1 (done_rounds / 2)) in
    let hits, misses =
      List.fold_left2
        (fun (h, m) tg (h0, m0, _) ->
          let h1, m1, _ = Urm.Ctx.plan_stats tg.ctx in
          (h + h1 - h0, m + m1 - m0))
        (0, 0) targets plan0
    in
    let layers =
      Layers.of_trace ~untraced:ust ~traced:tst
      @ [
          ("tpch.generate_s", med (fun (generate, _, _) -> generate));
          ("bipartite.mappings_s", med (fun (_, mappings, _) -> mappings));
          ("plan_cache.hit_ratio", ratio (float_of_int hits) (float_of_int (hits + misses)));
        ]
      @ untraced_host
    in
    (st, e2e, layers)
  end
