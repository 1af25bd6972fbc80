open Urm

module Table = struct
  type t = {
    id : string;
    title : string;
    headers : string list;
    rows : string list list;
    notes : string list;
  }

  let pp ppf t =
    Format.fprintf ppf "@[<v>== %s: %s ==@," t.id t.title;
    let widths =
      List.fold_left
        (fun ws row ->
          List.mapi
            (fun i cell ->
              let prev = try List.nth ws i with _ -> 0 in
              max prev (String.length cell))
            row)
        (List.map String.length t.headers)
        t.rows
    in
    let print_row row =
      let cells =
        List.mapi
          (fun i cell ->
            let w = try List.nth widths i with _ -> String.length cell in
            cell ^ String.make (max 0 (w - String.length cell)) ' ')
          row
      in
      Format.fprintf ppf "  %s@," (String.concat "  " cells)
    in
    print_row t.headers;
    print_row (List.map (fun w -> String.make w '-') widths);
    List.iter print_row t.rows;
    List.iter (fun n -> Format.fprintf ppf "  note: %s@," n) t.notes;
    Format.fprintf ppf "@]"
end

type config = {
  seed : int;
  scale : float;
  h : int;
  h_sweep : int list;
  scale_sweep : float list;
  k_sweep : int list;
  runs : int;
  engine : Urm_relalg.Compile.engine;
}

let default =
  {
    seed = 42;
    scale = 0.03;
    h = 100;
    h_sweep = [ 100; 200; 300; 400; 500 ];
    scale_sweep = [ 0.2; 0.4; 0.6; 0.8; 1.0 ];
    k_sweep = [ 1; 5; 10; 15; 20 ];
    runs = 1;
    engine = Urm_relalg.Compile.Vectorized;
  }

let quick =
  {
    seed = 7;
    scale = 0.01;
    h = 20;
    h_sweep = [ 10; 20 ];
    scale_sweep = [ 0.5; 1.0 ];
    k_sweep = [ 1; 3 ];
    runs = 1;
    engine = Urm_relalg.Compile.Vectorized;
  }

(* ------------------------------------------------------------------ *)

let s_float f = Printf.sprintf "%.4f" f
let s_int = string_of_int

let time_alg cfg alg ctx q ms =
  let report = ref None in
  let secs =
    Urm_util.Timer.repeat ~warmup:0 ~runs:cfg.runs (fun () ->
        report := Some (Algorithms.run alg ctx q ms))
  in
  (secs, Option.get !report)

(* Pipelines are memoised per (seed, scale) within one experiment run so the
   sweeps reuse generated instances and cached mapping sets. *)
let pipeline_cache : (int * int, Pipeline.t) Hashtbl.t = Hashtbl.create 8

let pipeline cfg ~scale =
  let key = (cfg.seed, int_of_float (scale *. 1_000_000.)) in
  match Hashtbl.find_opt pipeline_cache key with
  | Some p -> p
  | None ->
    let p = Pipeline.create ~seed:cfg.seed ~scale () in
    Hashtbl.replace pipeline_cache key p;
    p

let setup cfg ?(scale = 1.0) ?h (target, q) =
  let h = Option.value ~default:cfg.h h in
  let p = pipeline cfg ~scale:(cfg.scale *. scale) in
  (Pipeline.ctx ~engine:cfg.engine p target, q, Pipeline.mappings p target ~h)

(* ------------------------------------------------------------------ *)

let fig9a cfg =
  let p = pipeline cfg ~scale:cfg.scale in
  let rows =
    List.map
      (fun h ->
        s_int h
        :: List.map
             (fun (_, target) ->
               s_float (Overlap.o_ratio (Pipeline.mappings p target ~h)))
             Targets.all)
      cfg.h_sweep
  in
  {
    Table.id = "fig9a";
    title = "o-ratio of the possible-mapping sets vs number of mappings";
    headers = "h" :: List.map fst Targets.all;
    rows;
    notes =
      [ "paper: 73%-79% for Excel across 100..500 mappings; 79/68/72% at h=100" ];
  }

(* Experiments that need the interpreted engine: the phase breakdown
   (the plan engine fuses evaluation and aggregation into one pass, so its
   aggregate phase reads 0) and the strategy and memo experiments, which
   compare u-trace traversals (the plan engine's factorized pass ignores
   [strategy] and [use_memo]). *)
let interpreted cfg = { cfg with engine = Urm_relalg.Compile.Interpreted }
let interpreted_note = "interpreted engine: the only one with a u-trace"

let fig10a cfg =
  let cfg = interpreted cfg in
  let rows =
    List.map
      (fun (name, target, q) ->
        let ctx, q, ms = setup cfg (target, q) in
        let _, r = time_alg cfg Algorithms.Basic ctx q ms in
        let t = r.Report.timings in
        let eval = t.Report.evaluate and agg = t.Report.aggregate in
        let rewrite = t.Report.rewrite in
        let total = Report.total t in
        [
          name; s_float rewrite; s_float eval; s_float agg;
          Printf.sprintf "%.1f%%" (100. *. eval /. Float.max 1e-9 total);
        ])
      Queries.all
  in
  {
    Table.id = "fig10a";
    title = "basic: time breakdown (rewrite / evaluation / aggregation)";
    headers = [ "query"; "rewrite(s)"; "evaluate(s)"; "aggregate(s)"; "eval%" ];
    rows;
    notes =
      [
        "paper: evaluation dominates (>80%) for all ten queries";
        "interpreted engine: the only one with separate evaluate and \
         aggregate phases";
      ];
  }

let simple_algs = [ Algorithms.Basic; Algorithms.Ebasic; Algorithms.Emqo ]
let sharing_algs = [ Algorithms.Ebasic; Algorithms.Qsharing; Algorithms.Osharing Eunit.Sef ]

let sweep_table cfg ~id ~title ~axis ~points ~notes ~algs ~run =
  let headers = axis :: List.map Algorithms.name algs in
  let rows =
    List.map
      (fun point ->
        let label, ctx, q, ms = run point in
        label
        :: List.map (fun alg -> s_float (fst (time_alg cfg alg ctx q ms))) algs)
      points
  in
  { Table.id; title; headers; rows; notes }

let fig10b cfg =
  sweep_table cfg ~id:"fig10b"
    ~title:"simple solutions vs database size (Q4)"
    ~axis:"rows(D)" ~points:cfg.scale_sweep ~algs:simple_algs
    ~notes:[ "paper: e-basic < e-MQO < basic at every size" ]
    ~run:(fun mult ->
      let ctx, q, ms = setup cfg ~scale:mult Queries.default in
      (s_int (Urm_relalg.Catalog.total_rows ctx.Ctx.catalog), ctx, q, ms))

let fig10c cfg =
  sweep_table cfg ~id:"fig10c"
    ~title:"simple solutions vs number of mappings (Q4)"
    ~axis:"h" ~points:cfg.h_sweep ~algs:simple_algs
    ~notes:
      [ "paper: e-MQO rises sharply with |M| and falls behind basic past ~300" ]
    ~run:(fun h ->
      let ctx, q, ms = setup cfg ~h Queries.default in
      (s_int h, ctx, q, ms))

let fig11a cfg =
  let rows =
    List.map
      (fun (name, target, q) ->
        let ctx, q, ms = setup cfg (target, q) in
        name
        :: List.map
             (fun alg -> s_float (fst (time_alg cfg alg ctx q ms)))
             sharing_algs)
      Queries.all
  in
  {
    Table.id = "fig11a";
    title = "e-basic vs q-sharing vs o-sharing on Q1–Q10";
    headers = "query" :: List.map Algorithms.name sharing_algs;
    rows;
    notes =
      [
        "paper: q-sharing ≈16% faster than e-basic on average; o-sharing best";
      ];
  }

let fig11b cfg =
  sweep_table cfg ~id:"fig11b"
    ~title:"sharing solutions vs database size (Q4)"
    ~axis:"rows(D)" ~points:cfg.scale_sweep ~algs:sharing_algs
    ~notes:[ "paper: o-sharing scales best with |D|" ]
    ~run:(fun mult ->
      let ctx, q, ms = setup cfg ~scale:mult Queries.default in
      (s_int (Urm_relalg.Catalog.total_rows ctx.Ctx.catalog), ctx, q, ms))

let fig11c cfg =
  sweep_table cfg ~id:"fig11c"
    ~title:"sharing solutions vs number of mappings (Q4)"
    ~axis:"h" ~points:cfg.h_sweep ~algs:sharing_algs
    ~notes:[ "paper: o-sharing least sensitive to |M|" ]
    ~run:(fun h ->
      let ctx, q, ms = setup cfg ~h Queries.default in
      (s_int h, ctx, q, ms))

let fig11d cfg =
  sweep_table cfg ~id:"fig11d"
    ~title:"sharing solutions vs number of selection operators (Excel PO)"
    ~axis:"#selections"
    ~points:[ 1; 2; 3; 4; 5 ]
    ~algs:sharing_algs
    ~notes:
      [
        "paper: o-sharing ahead for ≥2 operators; slight u-trace overhead at 1";
      ]
    ~run:(fun n ->
      let q = Sweeps.selections n in
      let ctx, q, ms = setup cfg (Targets.excel, q) in
      (s_int n, ctx, q, ms))

let fig11e cfg =
  sweep_table cfg ~id:"fig11e"
    ~title:"sharing solutions vs number of Cartesian products (PO self-joins)"
    ~axis:"#products"
    ~points:[ 1; 2; 3 ]
    ~algs:sharing_algs
    ~notes:[ "paper: o-sharing best from two products on" ]
    ~run:(fun n ->
      let q = Sweeps.self_joins n in
      let ctx, q, ms = setup cfg (Targets.excel, q) in
      (s_int n, ctx, q, ms))

let strategies = [ Eunit.Random; Eunit.Snf; Eunit.Sef ]

let fig11f cfg =
  let cfg = interpreted cfg in
  let queries =
    List.filter (fun (n, _, _) -> List.mem n [ "Q1"; "Q2"; "Q3"; "Q4"; "Q5" ]) Queries.all
  in
  let rows =
    List.map
      (fun (name, target, q) ->
        let ctx, q, ms = setup cfg (target, q) in
        name
        :: List.map
             (fun st ->
               s_float (fst (time_alg cfg (Algorithms.Osharing st) ctx q ms)))
             strategies)
      queries
  in
  {
    Table.id = "fig11f";
    title = "operator selection strategies on Q1–Q5 (Excel)";
    headers = "query" :: List.map (fun s -> Eunit.strategy_name s) strategies;
    rows;
    notes = [ "paper: SNF and SEF far ahead of Random; SEF ≤ SNF"; interpreted_note ];
  }

let tab4 cfg =
  let cfg = interpreted cfg in
  let ctx, q, ms = setup cfg Queries.default in
  let strategy_rows =
    List.map
      (fun st ->
        let secs, r = time_alg cfg (Algorithms.Osharing st) ctx q ms in
        [ Eunit.strategy_name st; s_float secs; s_int r.Report.source_operators ])
      strategies
  in
  let emqo_secs, emqo = time_alg cfg Algorithms.Emqo ctx q ms in
  {
    Table.id = "tab4";
    title = "operator selection strategies (Q4): time and source operators";
    headers = [ "strategy"; "time(s)"; "#source operators" ];
    rows =
      strategy_rows
      @ [ [ "e-MQO (optimal ops)"; s_float emqo_secs; s_int emqo.Report.source_operators ] ];
    notes =
      [
        "paper: Random 215s/433 ops, SNF 58/135, SEF 55/132, e-MQO 320/112";
        "shape: Random executes the most operators; SEF ≤ SNF; e-MQO fewest ops but slow";
        interpreted_note;
      ];
  }

(* Fig. 12 runs the interpreted engine, so its e-units column counts
   u-trace e-units (on the plan engine top-k visits representative units
   instead; see the top-k sweep in bench/main.ml). *)
let fig12 cfg ~id ~qname =
  let cfg = interpreted cfg in
  let target, q = Queries.by_name qname in
  let ctx, q, ms = setup cfg (target, q) in
  let osharing_secs, _ = time_alg cfg (Algorithms.Osharing Eunit.Sef) ctx q ms in
  let rows =
    List.map
      (fun k ->
        let report = ref None in
        let secs =
          Urm_util.Timer.repeat ~warmup:0 ~runs:cfg.runs (fun () ->
              report := Some (Topk.run ~k ctx q ms))
        in
        let r = Option.get !report in
        [
          s_int k; s_float secs; s_float osharing_secs;
          s_int r.Topk.visited_eunits;
          (if r.Topk.stopped_early then "yes" else "no");
        ])
      cfg.k_sweep
  in
  {
    Table.id = id;
    title = Printf.sprintf "top-k vs o-sharing (%s)" qname;
    headers = [ "k"; "top-k(s)"; "o-sharing(s)"; "e-units"; "early stop" ];
    rows;
    notes =
      [
        "paper: top-k faster for small k; converges to o-sharing as k grows";
        interpreted_note;
      ];
  }

let fig12a cfg = fig12 cfg ~id:"fig12a" ~qname:"Q4"
let fig12b cfg = fig12 cfg ~id:"fig12b" ~qname:"Q7"
let fig12c cfg = fig12 cfg ~id:"fig12c" ~qname:"Q10"

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper. *)

let abl_memo cfg =
  let cfg = interpreted cfg in
  let queries = [ "Q3"; "Q4"; "Q5"; "Q9" ] in
  let rows =
    List.map
      (fun qname ->
        let target, q = Queries.by_name qname in
        let ctx, q, ms = setup cfg (target, q) in
        let run ~use_memo =
          let r = ref None in
          let secs =
            Urm_util.Timer.repeat ~warmup:0 ~runs:cfg.runs (fun () ->
                r := Some (Osharing.run_with_stats ~use_memo ctx q ms))
          in
          let report, stats = Option.get !r in
          (secs, report.Report.source_operators, stats.Osharing.memo_hits)
        in
        let t_on, ops_on, hits = run ~use_memo:true in
        let t_off, ops_off, _ = run ~use_memo:false in
        [ qname; s_float t_on; s_int ops_on; s_int hits; s_float t_off; s_int ops_off ])
      queries
  in
  {
    Table.id = "abl-memo";
    title = "ablation: o-sharing cross-branch operator memoisation";
    headers = [ "query"; "memo(s)"; "ops"; "hits"; "no-memo(s)"; "ops" ];
    rows;
    notes = [ "memoisation should never execute more operators"; interpreted_note ];
  }

let abl_index cfg =
  let queries = [ "Q1"; "Q4"; "Q6" ] in
  let rows =
    List.map
      (fun qname ->
        let target, q = Queries.by_name qname in
        let ctx, q, ms = setup cfg (target, q) in
        let with_index, _ = time_alg cfg Algorithms.Ebasic ctx q ms in
        Urm_relalg.Catalog.set_indexing ctx.Ctx.catalog false;
        let without, _ = time_alg cfg Algorithms.Ebasic ctx q ms in
        Urm_relalg.Catalog.set_indexing ctx.Ctx.catalog true;
        [ qname; s_float with_index; s_float without ])
      queries
  in
  {
    Table.id = "abl-index";
    title = "ablation: hash indexes in the source engine (e-basic)";
    headers = [ "query"; "indexed(s)"; "scan(s)" ];
    rows;
    notes = [];
  }

let abl_stats cfg =
  let rows =
    List.map
      (fun qname ->
        let target, q = Queries.by_name qname in
        let p = pipeline cfg ~scale:cfg.scale in
        let ctx = Pipeline.ctx ~engine:cfg.engine p target in
        let ms = Pipeline.mappings p target ~h:cfg.h in
        let distinct = Ebasic.distinct_source_queries ctx q ms in
        let exprs =
          List.filter_map
            (fun (sq, _) ->
              match sq.Reformulate.body with
              | Reformulate.Expr e -> Some e
              | _ -> None)
            distinct
        in
        let run_with stats =
          let ctrs = Urm_relalg.Eval.fresh_counters () in
          let plan, plan_t =
            Urm_util.Timer.time (fun () ->
                Urm_mqo.Planner.plan ?stats ctx.Ctx.catalog exprs)
          in
          let _, exec_t =
            Urm_util.Timer.time (fun () ->
                Urm_mqo.Planner.execute_iter ~ctrs ctx.Ctx.catalog plan
                  ~f:(fun _ _ _ -> ()))
          in
          (plan_t, exec_t, ctrs.Urm_relalg.Eval.operators)
        in
        let stats = Urm_relalg.Stats_est.build ctx.Ctx.catalog in
        let pt0, et0, ops0 = run_with None in
        let pt1, et1, ops1 = run_with (Some stats) in
        [
          qname; s_float pt0; s_float et0; s_int ops0; s_float pt1; s_float et1;
          s_int ops1;
        ])
      [ "Q3"; "Q4"; "Q9" ]
  in
  {
    Table.id = "abl-stats";
    title = "ablation: MQO cost model with fixed vs statistics-based selectivities";
    headers =
      [ "query"; "plan(s)"; "exec(s)"; "ops"; "plan+stats(s)"; "exec(s)"; "ops" ];
    rows;
    notes = [ "statistics should never increase executed operators noticeably" ];
  }

let abl_ptree cfg =
  let target, q = Queries.default in
  let p = pipeline cfg ~scale:cfg.scale in
  let rows =
    List.map
      (fun h ->
        let ms = Pipeline.mappings p target ~h in
        let t_tree =
          Urm_util.Timer.repeat ~warmup:1 ~runs:(max 3 cfg.runs) (fun () ->
              Ptree.partition target q ms)
        in
        let t_naive =
          Urm_util.Timer.repeat ~warmup:1 ~runs:(max 3 cfg.runs) (fun () ->
              Ptree.partition_naive target q ms)
        in
        [ s_int h; s_float t_tree; s_float t_naive ])
      cfg.h_sweep
  in
  {
    Table.id = "abl-ptree";
    title = "ablation: partition tree vs naive group-by partitioning (Q4)";
    headers = [ "h"; "tree(s)"; "naive(s)" ];
    rows;
    notes = [];
  }

(* ------------------------------------------------------------------ *)

let all =
  [
    ("fig9a", fig9a);
    ("fig10a", fig10a);
    ("fig10b", fig10b);
    ("fig10c", fig10c);
    ("fig11a", fig11a);
    ("fig11b", fig11b);
    ("fig11c", fig11c);
    ("fig11d", fig11d);
    ("fig11e", fig11e);
    ("fig11f", fig11f);
    ("tab4", tab4);
    ("fig12a", fig12a);
    ("fig12b", fig12b);
    ("fig12c", fig12c);
    ("abl-memo", abl_memo);
    ("abl-index", abl_index);
    ("abl-stats", abl_stats);
    ("abl-ptree", abl_ptree);
  ]

let run_by_id cfg id = (List.assoc id all) cfg
