(* Benchmark harness.

   Two parts, both filtered by [--only id1,id2]:

   1. The experiment tables: regenerates every table and figure of the
      paper's evaluation section (plus the DESIGN.md ablations) at the
      default configuration and prints them in row/series form.  Use
      [--quick] for the miniature configuration.

   2. A Bechamel micro-benchmark suite with one [Test.make] per table or
      figure, exercising that experiment's characteristic operation on a
      small fixed workload (skip with [--skip-bechamel], keep only with
      [--skip-tables]). *)

(* First, before argv parsing: the shard sweep spawns worker processes
   by re-executing this binary with URM_SHARD_WORKER set. *)
let () = Urm_shard.Launcher.exec_if_worker ()

let parse_args () =
  let only = ref None in
  let quick = ref false in
  let skip_bechamel = ref false in
  let skip_tables = ref false in
  let rec go = function
    | [] -> ()
    | "--only" :: v :: rest ->
      only := Some (String.split_on_char ',' v);
      go rest
    | "--quick" :: rest ->
      quick := true;
      go rest
    | "--skip-bechamel" :: rest ->
      skip_bechamel := true;
      go rest
    | "--skip-tables" :: rest ->
      skip_tables := true;
      go rest
    | other :: _ ->
      Format.eprintf
        "unknown argument %s (expected --only ids | --quick | --skip-bechamel \
         | --skip-tables)@."
        other;
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  (!only, !quick, !skip_bechamel, !skip_tables)

let wanted only id =
  match only with None -> true | Some ids -> List.mem id ids

(* ------------------------------------------------------------------ *)
(* Shared by the sweeps: the revision, and timed columns with every run's
   seconds, their min and median. *)

let git_rev () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | ic -> (
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown")
  | exception Unix.Unix_error _ -> "unknown"

let median xs = Urm_util.Stats.percentile 0.5 xs
let min_of = List.fold_left Float.min infinity

(* A timed column of a sweep row: every run's seconds with their min and
   median, plus [extra] fields. *)
let column name secs extra =
  let module J = Urm_util.Json in
  ( name,
    J.Obj
      ([
         ("runs", J.Arr (List.map (fun s -> J.Num s) secs));
         ("min", J.Num (min_of secs));
         ("median", J.Num (median secs));
       ]
      @ extra) )

(* [measure runs f] runs [f] [runs] times, each from a compacted heap:
   the seconds of every run and the last run's result. *)
let measure runs f =
  let last = ref None in
  let secs =
    List.init runs (fun _ ->
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        last := Some (f ());
        Unix.gettimeofday () -. t0)
  in
  (secs, Option.get !last)

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables and figures. *)

let metrics_file = "metrics.json"

let run_tables only quick =
  let cfg =
    if quick then Urm_workload.Experiments.quick else Urm_workload.Experiments.default
  in
  if List.exists (fun (id, _) -> wanted only id) Urm_workload.Experiments.all then
    Format.printf "=== experiment tables (scale %g, h = %d, runs = %d) ===@.@."
      cfg.Urm_workload.Experiments.scale cfg.Urm_workload.Experiments.h
      cfg.Urm_workload.Experiments.runs;
  (* One metrics snapshot per experiment: the algorithms all record into the
     global registry, so reset it around each experiment and keep the
     per-experiment JSON. *)
  let snapshots =
    List.filter_map
      (fun (id, f) ->
        if wanted only id then begin
          Urm_obs.Metrics.reset Urm_obs.Metrics.global;
          let t0 = Unix.gettimeofday () in
          let table = f cfg in
          Format.printf "%a  [%.1fs]@.@." Urm_workload.Experiments.Table.pp table
            (Unix.gettimeofday () -. t0);
          Some (id, Urm_obs.Metrics.to_json Urm_obs.Metrics.global)
        end
        else None)
      Urm_workload.Experiments.all
  in
  if snapshots <> [] then begin
    let json = Urm_util.Json.Obj [ ("experiments", Urm_util.Json.Obj snapshots) ] in
    let oc = open_out metrics_file in
    output_string oc (Urm_util.Json.to_string json);
    output_char oc '\n';
    close_out oc;
    Format.printf "wrote per-experiment operator metrics to %s@." metrics_file
  end

(* ------------------------------------------------------------------ *)
(* Part 1c: the engine sweep (id "eval").

   Per algorithm × workload × h, runs the same query under both engines
   (interpreted and vectorized) and records wall time, the vectorized
   contexts' plan-cache counters and whether the rendered answer is the
   interpreted baseline's byte for byte, written to BENCH_eval.json.  Any mismatch makes the harness
   exit non-zero.  Two workloads:

   - "replicated": the top-1 mapping duplicated h times (uniform 1/h
     probability).  Every mapping rewrites to the same query shape, so a
     single compile serves the whole run — the pure cross-mapping
     plan-cache case (hit ≥ h − 1).
   - "pipeline": the real h-best Murty mappings, where distinct
     correspondence sets yield several plan shapes. *)

let eval_file = "BENCH_eval.json"

let run_eval quick =
  let module E = Urm_workload.Experiments in
  let cfg = if quick then E.quick else E.default in
  let engines = [ Urm_relalg.Compile.Interpreted; Urm_relalg.Compile.Vectorized ] in
  let mismatch = ref false in
  let h_sweep = if quick then [ 8; 32 ] else [ 32; 100; 300 ] in
  let algorithms =
    [ Urm.Algorithms.Basic; Urm.Algorithms.Ebasic; Urm.Algorithms.Emqo ]
  in
  let target, q = Urm_workload.Queries.default in
  let p = Urm_workload.Pipeline.create ~seed:cfg.E.seed ~scale:cfg.E.scale () in
  let replicated h =
    match Urm_workload.Pipeline.mappings p target ~h:1 with
    | [] -> []
    | top :: _ ->
      List.init h (fun id ->
          Urm.Mapping.make ~id ~prob:(1. /. float_of_int h)
            ~score:top.Urm.Mapping.score top.Urm.Mapping.pairs)
  in
  let workloads =
    [
      ("replicated", replicated);
      ("pipeline", fun h -> Urm_workload.Pipeline.mappings p target ~h);
    ]
  in
  Format.printf "=== engine sweep (Q4, %s) ===@.@."
    (String.concat " vs "
       (List.map Urm_relalg.Compile.engine_name engines));
  let rows =
    List.concat_map
      (fun alg ->
        List.concat_map
          (fun (workload, make_ms) ->
            List.concat_map
              (fun h ->
                let ms = make_ms h in
                let baseline = ref None in
                List.map
                  (fun engine ->
                    (* A fresh context per row isolates the plan-cache
                       counters to this run. *)
                    let ctx = Urm_workload.Pipeline.ctx ~engine p target in
                    let report = ref None in
                    let secs =
                      Urm_util.Timer.repeat ~warmup:0 ~runs:cfg.E.runs
                        (fun () -> report := Some (Urm.Algorithms.run alg ctx q ms))
                    in
                    let rendered =
                      Urm_util.Json.to_string
                        (Urm.Answer.to_json (Option.get !report).Urm.Report.answer)
                    in
                    let identical =
                      match !baseline with
                      | None ->
                        baseline := Some rendered;
                        true
                      | Some b -> String.equal b rendered
                    in
                    if not identical then mismatch := true;
                    let hit, miss, evict = Urm.Ctx.plan_stats ctx in
                    Format.printf
                      "  %-10s %-10s h=%-4d %-11s  %8.3fs  cache %d/%d%s@."
                      (Urm.Algorithms.name alg) workload h
                      (Urm_relalg.Compile.engine_name engine)
                      secs hit (hit + miss)
                      (if identical then "" else "  ANSWER MISMATCH");
                    Urm_util.Json.Obj
                      [
                        ("id", Urm_util.Json.Str "eval");
                        ( "algorithm",
                          Urm_util.Json.Str (Urm.Algorithms.name alg) );
                        ("workload", Urm_util.Json.Str workload);
                        ("query", Urm_util.Json.Str "Q4");
                        ("h", Urm_util.Json.Num (float_of_int h));
                        ( "engine",
                          Urm_util.Json.Str
                            (Urm_relalg.Compile.engine_name engine) );
                        ("seconds", Urm_util.Json.Num secs);
                        ( "plan_cache",
                          Urm_util.Json.Obj
                            [
                              ("hit", Urm_util.Json.Num (float_of_int hit));
                              ("miss", Urm_util.Json.Num (float_of_int miss));
                              ("evict", Urm_util.Json.Num (float_of_int evict));
                            ] );
                        ("identical_to_interpreted", Urm_util.Json.Bool identical);
                      ])
                  engines)
              h_sweep)
          workloads)
      algorithms
  in
  let json =
    Urm_util.Json.Obj
      [
        ( "config",
          Urm_util.Json.Obj
            [
              ("seed", Urm_util.Json.Num (float_of_int cfg.E.seed));
              ("scale", Urm_util.Json.Num cfg.E.scale);
              ("runs", Urm_util.Json.Num (float_of_int cfg.E.runs));
            ] );
        ("rows", Urm_util.Json.Arr rows);
      ]
  in
  let oc = open_out eval_file in
  output_string oc (Urm_util.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote engine sweep to %s@.@." eval_file;
  if !mismatch then begin
    Format.eprintf "engine sweep: answers diverged from the interpreted baseline@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 1c': the sharing sweep (id "share").

   The factorized multi-mapping executor's headline: on the plan engine
   every exact algorithm runs one vectorized pass over its units for all h
   mappings — the distinct e-units for e-basic and e-MQO, one singleton
   unit per mapping for basic, one unit per q-sharing partition for
   q-sharing and o-sharing — instead of re-interpreting per unit.  Per
   algorithm × engine × h, times Q4 on the pipeline workload and checks
   the rendered JSON byte-for-byte against the interpreted e-basic oracle
   of the same h: every unit adds its mappings' exact mass and sums are
   exact, so even the float bits must agree, basic included.  Any
   divergence exits non-zero, so the factorized path cannot silently
   drift.  Each row records the report's effective engine
   ("vectorized+factorized" on every plan-engine row, basic included)
   and its rewrite-phase seconds; the file records the git revision.

   The perf gate (full sweep only, where h=300 exists): factorized e-MQO
   must beat factorized basic (the vectorized basic row) wall-clock and
   interpreted e-MQO by ≥ 5×, measured as the min of 3 fresh runs per
   configuration, each from a compacted heap — the min is the
   noise-robust statistic; single-shot row timings on a shared box jitter
   by 20%+, which a 5× threshold cannot absorb. *)

let share_file = "BENCH_share.json"

let run_share quick =
  let module E = Urm_workload.Experiments in
  let cfg = if quick then E.quick else E.default in
  let h_sweep = if quick then [ 8; 32 ] else [ 32; 100; 300 ] in
  let sharing =
    [
      Urm.Algorithms.Ebasic;
      Urm.Algorithms.Emqo;
      Urm.Algorithms.Qsharing;
      Urm.Algorithms.Osharing Urm.Eunit.Sef;
    ]
  in
  let target, q = Urm_workload.Queries.default in
  let p = Urm_workload.Pipeline.create ~seed:cfg.E.seed ~scale:cfg.E.scale () in
  let mismatch = ref false in
  Format.printf "=== sharing sweep (Q4, factorized vs interpreted) ===@.@.";
  let row alg engine h ms ~oracle =
    let ctx = Urm_workload.Pipeline.ctx ~engine p target in
    let report = ref None in
    let secs =
      Urm_util.Timer.repeat ~warmup:0 ~runs:cfg.E.runs (fun () ->
          report := Some (Urm.Algorithms.run alg ctx q ms))
    in
    let report = Option.get !report in
    let answer = report.Urm.Report.answer in
    let rendered = Urm_util.Json.to_string (Urm.Answer.to_json answer) in
    let matches =
      match !oracle with
      | None ->
        oracle := Some rendered;
        true
      | Some obytes -> String.equal obytes rendered
    in
    if not matches then mismatch := true;
    let alg_name = Urm.Algorithms.name alg in
    let engine_name = Urm_relalg.Compile.engine_name engine in
    Format.printf "  %-14s h=%-4d %-11s (%s)  %8.3fs  rewrite %8.5fs%s@."
      alg_name h engine_name
      (match report.Urm.Report.engine with "" -> "?" | e -> e)
      secs report.Urm.Report.timings.Urm.Report.rewrite
      (if matches then "" else "  ANSWER MISMATCH");
    Urm_util.Json.Obj
      [
        ("id", Urm_util.Json.Str "share");
        ("algorithm", Urm_util.Json.Str alg_name);
        ("query", Urm_util.Json.Str "Q4");
        ("h", Urm_util.Json.Num (float_of_int h));
        ("engine", Urm_util.Json.Str engine_name);
        ("effective_engine", Urm_util.Json.Str report.Urm.Report.engine);
        ("seconds", Urm_util.Json.Num secs);
        (* The report's rewrite phase: building the units (e-basic and
           e-MQO reformulate once per q-sharing partition). *)
        ( "rewrite_seconds",
          Urm_util.Json.Num report.Urm.Report.timings.Urm.Report.rewrite );
        ("comparison", Urm_util.Json.Str "bytes");
        ("matches_oracle", Urm_util.Json.Bool matches);
      ]
  in
  let mappings = Hashtbl.create 4 in
  let mappings_for h =
    match Hashtbl.find_opt mappings h with
    | Some ms -> ms
    | None ->
      let ms = Urm_workload.Pipeline.mappings p target ~h in
      Hashtbl.add mappings h ms;
      ms
  in
  let rows =
    List.concat_map
      (fun h ->
        let ms = mappings_for h in
        (* The oracle at this h: interpreted e-basic, the first row.  An
           interpreted basic reference is h× more expensive for the same
           probabilities, so the sharing algorithms' interpreted runs
           stand in. *)
        let oracle = ref None in
        let interp =
          List.map
            (fun alg ->
              row alg Urm_relalg.Compile.Interpreted h ms ~oracle)
            sharing
        in
        let vect_basic =
          row Urm.Algorithms.Basic Urm_relalg.Compile.Vectorized h ms ~oracle
        in
        let vect =
          vect_basic
          :: List.map
               (fun alg ->
                 row alg Urm_relalg.Compile.Vectorized h ms ~oracle)
               sharing
        in
        interp @ vect)
      h_sweep
  in
  (* The perf gate, re-measured min-of-3 with a fresh context per run.
     Each run starts from a compacted heap, so its garbage-collector work
     does not depend on what the sweep rows above happened to leave
     behind. *)
  let gate =
    if quick then []
    else begin
      let ms = mappings_for 300 in
      let best alg engine =
        let t = ref infinity in
        for _ = 1 to 3 do
          let ctx = Urm_workload.Pipeline.ctx ~engine p target in
          Gc.compact ();
          let secs =
            Urm_util.Timer.repeat ~warmup:0 ~runs:1 (fun () ->
                ignore (Urm.Algorithms.run alg ctx q ms))
          in
          if secs < !t then t := secs
        done;
        !t
      in
      let fact = best Urm.Algorithms.Emqo Urm_relalg.Compile.Vectorized in
      let interp = best Urm.Algorithms.Emqo Urm_relalg.Compile.Interpreted in
      let basic = best Urm.Algorithms.Basic Urm_relalg.Compile.Vectorized in
      let speedup = interp /. fact in
      let pass = fact < basic && speedup >= 5. in
      Format.printf
        "@.perf gate (h=300, min of 3): factorized e-MQO %.3fs, factorized \
         basic %.3fs, interpreted e-MQO %.3fs (%.1fx) — %s@."
        fact basic interp speedup
        (if pass then "PASS" else "FAIL");
      [
        ( "gate",
          Urm_util.Json.Obj
            [
              ("h", Urm_util.Json.Num 300.);
              ("runs", Urm_util.Json.Num 3.);
              ("factorized_emqo_seconds", Urm_util.Json.Num fact);
              ("interpreted_emqo_seconds", Urm_util.Json.Num interp);
              ("factorized_basic_seconds", Urm_util.Json.Num basic);
              ("speedup_vs_interpreted", Urm_util.Json.Num speedup);
              ("pass", Urm_util.Json.Bool pass);
            ] );
      ]
    end
  in
  let json =
    Urm_util.Json.Obj
      ([
         ("git_rev", Urm_util.Json.Str (git_rev ()));
         ( "config",
           Urm_util.Json.Obj
             [
               ("seed", Urm_util.Json.Num (float_of_int cfg.E.seed));
               ("scale", Urm_util.Json.Num cfg.E.scale);
               ("runs", Urm_util.Json.Num (float_of_int cfg.E.runs));
             ] );
         ("rows", Urm_util.Json.Arr rows);
       ]
      @ gate)
  in
  let oc = open_out share_file in
  output_string oc (Urm_util.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote sharing sweep to %s@.@." share_file;
  if !mismatch then begin
    Format.eprintf
      "sharing sweep: answers diverged from the interpreted oracle@.";
    exit 1
  end;
  match gate with
  | [ (_, Urm_util.Json.Obj fields) ]
    when List.assoc "pass" fields = Urm_util.Json.Bool false ->
    Format.eprintf
      "perf gate FAILED: factorized e-MQO must beat factorized basic and \
       interpreted e-MQO by >= 5x@.";
    exit 1
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Part 1d: the anytime sweep (id "anytime").

   [approx]'s estimate is one bounded exact pass ({!Urm.Approx}) over the
   q-sharing partitions in descending mass order, stopped once the
   unvisited mass is at most 2ε.  Per synthetic Q4 mapping set
   (h = 10³..10⁵) and per target width 2ε ∈ {0.171, 0.086, 0.043} (the
   widths the Monte-Carlo sweep this replaced reached with 128 / 512 /
   2048 samples), times the bounded estimate beside the full exact pass
   over the same partitions (the same pass at ε = 0), each 3 runs from a
   compacted heap with min and median, and records units visited, the
   report's phase sum beside the wall time, and the widths.  Exits
   non-zero unless every interval (θ's too) contains the exact
   probability of interpreted basic (interpreted e-basic, basic's bytes,
   beyond h = 10³), no tuple the pass never saw exceeds the unvisited
   mass, and every converged row is at most 2ε wide.  Written to
   BENCH_anytime.json. *)

let anytime_file = "BENCH_anytime.json"

let run_anytime quick =
  let module E = Urm_workload.Experiments in
  let module J = Urm_util.Json in
  let module A = Urm.Approx in
  let cfg = if quick then E.quick else E.default in
  let runs = 3 in
  let target, q = Urm_workload.Queries.default in
  let p = Urm_workload.Pipeline.create ~seed:cfg.E.seed ~scale:cfg.E.scale () in
  let ctx = Urm_workload.Pipeline.ctx p target in
  let oracle =
    Urm_workload.Pipeline.ctx ~engine:Urm_relalg.Compile.Interpreted p target
  in
  let h_sweep = if quick then [ 1000 ] else [ 1000; 10_000; 100_000 ] in
  let widths = [ 0.171; 0.086; 0.043 ] in
  let failed = ref false in
  Format.printf
    "=== anytime sweep (Q4, synthetic mappings, bounded estimate vs full pass, \
     min of %d) ===@.@."
    runs;
  let timed name secs (r : A.result) =
    let t = r.A.report.Urm.Report.timings in
    column name secs
      [
        ("units", J.Num (float_of_int r.A.units));
        ("phase_sum", J.Num (Urm.Report.total t));
        ( "phases",
          J.Obj
            [
              ("rewrite", J.Num t.Urm.Report.rewrite);
              ("plan", J.Num t.Urm.Report.plan);
              ("evaluate", J.Num t.Urm.Report.evaluate);
              ("aggregate", J.Num t.Urm.Report.aggregate);
            ] );
      ]
  in
  let rows =
    List.concat_map
      (fun h ->
        let ms = Urm_workload.Pipeline.synthetic_mappings p target ~h in
        (* Interpreted basic evaluates every mapping on its own (≈ 15 s per
           10³ mappings at scale 0.01); beyond h = 10³ the oracle is
           interpreted e-basic, whose answer is basic's bit for bit. *)
        let oracle_name, exact =
          if h <= 1000 then ("interpreted basic", Urm.Basic.run oracle q ms)
          else ("interpreted e-basic", Urm.Ebasic.run oracle q ms)
        in
        let exact = exact.Urm.Report.answer in
        let full_secs, full = measure runs (fun () -> A.run (A.Estimate 0.) ctx q ms) in
        Format.printf "  h=%-7d full pass   %8.3fs  %d units@." h (min_of full_secs)
          full.A.units;
        List.map
          (fun width ->
            let secs, r = measure runs (fun () -> A.run (A.Estimate (width /. 2.)) ctx q ms) in
            let intervals = r.A.intervals in
            let inside p (lo, hi) = lo <= p && p <= hi in
            let seen = Hashtbl.create (List.length intervals) in
            List.iter (fun (t, _) -> Hashtbl.replace seen t ()) intervals;
            let covers =
              List.for_all (fun (t, b) -> inside (Urm.Answer.prob_of exact t) b) intervals
              && inside (Urm.Answer.null_prob exact) r.A.null_interval
              && List.for_all
                   (fun (t, p) -> Hashtbl.mem seen t || p <= r.A.unvisited)
                   (Urm.Answer.to_list exact)
            in
            let max_width =
              List.fold_left
                (fun acc (_, (lo, hi)) -> Float.max acc (hi -. lo))
                (Float.max r.A.unvisited (snd r.A.null_interval -. fst r.A.null_interval))
                intervals
            in
            let converged = r.A.stop_reason = A.Converged in
            let ok = covers && ((not converged) || max_width <= width) in
            if not ok then failed := true;
            let t = r.A.report.Urm.Report.timings in
            Format.printf
              "  h=%-7d 2ε=%.3f     %8.3fs  %d units  width %.4f  phase sum %.3fs \
               (rewrite %.3f, evaluate %.3f, aggregate %.3f)  %s%s@."
              h width (min_of secs) r.A.units max_width (Urm.Report.total t)
              t.Urm.Report.rewrite t.Urm.Report.evaluate t.Urm.Report.aggregate
              (A.stop_reason_name r.A.stop_reason)
              (if ok then "" else "  FAILED");
            J.Obj
              [
                ("query", J.Str "Q4");
                ("h", J.Num (float_of_int h));
                ("oracle", J.Str oracle_name);
                ("mappings", J.Num (float_of_int (List.length ms)));
                ("target_width", J.Num width);
                ("epsilon", J.Num (width /. 2.));
                timed "estimate" secs r;
                timed "full_pass" full_secs full;
                ("speedup_min", J.Num (min_of full_secs /. min_of secs));
                ("stopped_early", J.Bool r.A.stopped_early);
                ("stop_reason", J.Str (A.stop_reason_name r.A.stop_reason));
                ("max_width", J.Num max_width);
                ("unseen_hi", J.Num r.A.unvisited);
                ("covers_exact", J.Bool covers);
                ("ok", J.Bool ok);
              ])
          widths)
      h_sweep
  in
  let json =
    J.Obj
      [
        ("git_rev", J.Str (git_rev ()));
        ( "config",
          J.Obj
            [
              ("seed", J.Num (float_of_int cfg.E.seed));
              ("scale", J.Num cfg.E.scale);
              ("engine", J.Str "vectorized");
              ("runs", J.Num (float_of_int runs));
              ("gc_compact_before_each_run", J.Bool true);
            ] );
        ("rows", J.Arr rows);
      ]
  in
  let oc = open_out anytime_file in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote anytime sweep to %s@.@." anytime_file;
  if !failed then begin
    Format.eprintf
      "anytime sweep: an interval missed the exact answer or a converged row \
       exceeded 2ε@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 1e: the incremental-maintenance sweep (id "incr").

   The headline claim of lib/incr: after a mutation batch, patching the
   maintained answer by delta evaluation (State.catch_up) beats
   re-evaluating the query from scratch, and the patched answer renders
   the fresh one's bytes at every benchmarked point — any difference
   makes the harness exit non-zero.  Per h × batch size,
   commits [runs] epochs of fresh-key tuple inserts into a relation the
   query reads (inserts elsewhere would be skipped by every shape, timing
   nothing) and times the catch-up against a full Basic re-evaluation
   over the new head.  Written to BENCH_incr.json. *)

let incr_file = "BENCH_incr.json"

let run_incr quick =
  let module E = Urm_workload.Experiments in
  let module Vcatalog = Urm_incr.Vcatalog in
  let module State = Urm_incr.State in
  let module Mutation = Urm_incr.Mutation in
  let module Json = Urm_util.Json in
  let cfg = if quick then E.quick else E.default in
  let runs = if quick then 2 else 3 in
  let h_sweep = if quick then [ 8; 32 ] else [ 100; 300; 500 ] in
  let batch_sizes = [ 1; 10; 100 ] in
  let target, q = Urm_workload.Queries.default in
  let p = Urm_workload.Pipeline.create ~seed:cfg.E.seed ~scale:cfg.E.scale () in
  let mismatch = ref false in
  let single_insert = ref [] in
  Format.printf "=== incremental maintenance (Q4, basic) ===@.@.";
  let rows =
    List.concat_map
      (fun h ->
        let ms = Urm_workload.Pipeline.mappings p target ~h in
        let ctx = Urm_workload.Pipeline.ctx p target in
        let vcat = Vcatalog.create ~ctx ~mappings:ms () in
        let head0 = Vcatalog.head vcat in
        let rel =
          match State.query_deps head0 q with
          | r :: _ -> r
          | [] -> failwith "incr bench: Q4 reads no stored relation"
        in
        let fresh_key = ref 0 in
        let make_batch head n =
          let stored =
            Urm_relalg.Catalog.find head.Vcatalog.ctx.Urm.Ctx.catalog rel
          in
          List.init n (fun i ->
              let row =
                Array.copy
                  stored.Urm_relalg.Relation.rows.(i
                                                   mod Urm_relalg.Relation
                                                       .cardinality stored)
              in
              incr fresh_key;
              (match row.(0) with
              | Urm_relalg.Value.Int _ ->
                row.(0) <- Urm_relalg.Value.Int (10_000_000 + !fresh_key)
              | _ -> ());
              Mutation.Insert { rel; row })
        in
        (* Build the maintained state once per h; one fresh evaluation
           warms the plan cache so the full-reeval side is not charged
           compile time either. *)
        let t0 = Urm_util.Timer.now () in
        let state = State.build head0 q in
        let build_secs = Urm_util.Timer.now () -. t0 in
        ignore
          (Urm.Algorithms.run Urm.Algorithms.Basic head0.Vcatalog.ctx q
             head0.Vcatalog.mappings);
        List.map
          (fun n ->
            let d_sum = ref 0. and f_sum = ref 0. in
            for _ = 1 to runs do
              let head = Vcatalog.head vcat in
              let batch = make_batch head n in
              (match Vcatalog.commit vcat batch with
              | Ok _ -> ()
              | Error msg -> failwith ("incr bench: commit failed: " ^ msg));
              let t0 = Urm_util.Timer.now () in
              let _, status = State.catch_up vcat state in
              d_sum := !d_sum +. (Urm_util.Timer.now () -. t0);
              (match status with
              | `Patched -> ()
              | `Current | `Rebuilt ->
                failwith "incr bench: expected a delta catch-up");
              let head = Vcatalog.head vcat in
              let t1 = Urm_util.Timer.now () in
              let report =
                Urm.Algorithms.run Urm.Algorithms.Basic head.Vcatalog.ctx q
                  head.Vcatalog.mappings
              in
              f_sum := !f_sum +. (Urm_util.Timer.now () -. t1);
              let bytes a = Urm_util.Json.to_string (Urm.Answer.to_json a) in
              if
                not
                  (String.equal
                     (bytes report.Urm.Report.answer)
                     (bytes (State.answer state)))
              then mismatch := true
            done;
            let delta_secs = !d_sum /. float_of_int runs in
            let full_secs = !f_sum /. float_of_int runs in
            let speedup = full_secs /. Float.max delta_secs 1e-9 in
            if n = 1 then single_insert := (h, speedup) :: !single_insert;
            Format.printf
              "  h=%-5d batch=%-4d  delta %9.6fs  full %8.4fs  speedup \
               %8.1fx%s@."
              h n delta_secs full_secs speedup
              (if !mismatch then "  ANSWER MISMATCH" else "");
            Json.Obj
              [
                ("id", Json.Str "incr");
                ("query", Json.Str "Q4");
                ("algorithm", Json.Str "basic");
                ("h", Json.Num (float_of_int h));
                ("batch", Json.Num (float_of_int n));
                ("relation", Json.Str rel);
                ("build_seconds", Json.Num build_secs);
                ("delta_seconds", Json.Num delta_secs);
                ("full_seconds", Json.Num full_secs);
                ("speedup", Json.Num speedup);
                ("identical_to_fresh", Json.Bool (not !mismatch));
              ])
          batch_sizes)
      h_sweep
  in
  (* The headline: single-tuple-insert batches at the largest h. *)
  let meets_5x =
    List.for_all
      (fun (h, s) -> h < 300 || s >= 5.)
      !single_insert
  in
  Format.printf "@.  single-insert speedups: %s → %s@."
    (String.concat ", "
       (List.rev_map
          (fun (h, s) -> Printf.sprintf "h=%d %.1fx" h s)
          !single_insert))
    (if meets_5x then "≥5x at h≥300" else "BELOW the 5x target at h≥300");
  let json =
    Json.Obj
      [
        ( "config",
          Json.Obj
            [
              ("seed", Json.Num (float_of_int cfg.E.seed));
              ("scale", Json.Num cfg.E.scale);
              ("runs", Json.Num (float_of_int runs));
            ] );
        ("meets_5x_single_insert", Json.Bool meets_5x);
        ("rows", Json.Arr rows);
      ]
  in
  let oc = open_out incr_file in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote incremental-maintenance sweep to %s@.@." incr_file;
  if !mismatch then begin
    Format.eprintf
      "incr sweep: a patched answer diverged from the fresh evaluation@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 1f: the shard-router sweep (id "shard").

   End-to-end service latency and throughput over the binary-framed wire
   at shards ∈ {1, 2, 3}: one router + N worker processes per point, and
   every reply byte-compared against the shards = 1 reply of the same
   request, recorded as "identical_to_shards1" in BENCH_shard.json.  The
   router forwards each request whole to one worker, placed by its
   (session, op, query, algorithm), so two columns are timed, 3 runs each:
   - serial: one client loops over Q1/Q2/Q4 basic after a warm pass, so
     every timed request is a worker answer-cache hit and the column
     measures the wire and the router;
   - concurrent: 4 clients ask Q1/Q2/Q4 under five exact algorithms for
     [rounds] rounds, each client, run and round under its own [answers]
     limit, so every request misses the answer cache and is evaluated.  This measures whether query
     placement spreads evaluation over the workers. *)

let shard_file = "BENCH_shard.json"

let run_shard quick =
  let module Json = Urm_util.Json in
  let module Client = Urm_service.Client in
  let module Router = Urm_shard.Router in
  let shard_sweep = [ 1; 2; 3 ] in
  let runs = 3 in
  let requests = if quick then 60 else 300 in
  let clients = 4 in
  let rounds = if quick then 1 else 5 in
  let queries = [ "Q1"; "Q2"; "Q4" ] in
  let algorithms = [ "basic"; "e-basic"; "e-mqo"; "q-sharing"; "o-sharing" ] in
  let session = ("session", Json.Str "bench-shard") in
  let member name json =
    Option.value ~default:Json.Null (Json.member name json)
  in
  let answer_key json =
    Json.to_string
      (Json.Obj
         [ ("answers", member "answers" json); ("null", member "null_prob" json) ])
  in
  Format.printf
    "=== shard-router sweep (shards ∈ {%s}, %d runs: %d serial requests, \
     %d clients × %d cold requests) ===@.@."
    (String.concat ", " (List.map string_of_int shard_sweep))
    runs requests clients
    (rounds * List.length queries * List.length algorithms);
  let mismatch = ref false in
  let baseline : (string, string) Hashtbl.t = Hashtbl.create 64 in
  (* A timed column: per-run seconds and latency percentiles, with the
     min and median of each over the runs. *)
  let timed_column ?(extra = []) name ~requests runs_lats_secs =
    let stat f =
      let xs = List.map f runs_lats_secs in
      Json.Obj [ ("min", Json.Num (min_of xs)); ("median", Json.Num (median xs)) ]
    in
    let pct q (lats, _) = Urm_util.Stats.percentile_or_zero q lats in
    let secs = List.map snd runs_lats_secs in
    ( name,
      Json.Obj
        (extra
        @ [
          ("requests", Json.Num (float_of_int requests));
          ("seconds", stat snd);
          ("p50", stat (pct 0.5));
          ("p95", stat (pct 0.95));
          ("p99", stat (pct 0.99));
          ("req_per_s_median", Json.Num (float_of_int requests /. median secs));
          ("req_per_s_best", Json.Num (float_of_int requests /. min_of secs));
          ( "runs",
            Json.Arr
              (List.map
                 (fun ((_, s) as r) ->
                   Json.Obj
                     [
                       ("seconds", Json.Num s);
                       ("p50", Json.Num (pct 0.5 r));
                       ("p95", Json.Num (pct 0.95 r));
                     ])
                 runs_lats_secs) );
        ]) )
  in
  let rows =
    List.map
      (fun shards ->
        match Router.start { Router.default_config with shards } with
        | Error m ->
          Format.eprintf "shard sweep: cannot start the %d-shard router: %s@."
            shards m;
          exit 1
        | Ok router ->
          let port = Router.port router in
          let c = Client.connect ~framed:true ~port () in
          (match
             Client.call c ~op:"open-session"
               [
                 session;
                 ("target", Json.Str "Excel");
                 ("seed", Json.Num 7.);
                 ("scale", Json.Num 0.01);
                 ("h", Json.Num 8.);
               ]
           with
          | Ok _ -> ()
          | Error (code, m) ->
            Format.eprintf "shard sweep: open-session: %s: %s@." code m;
            exit 1);
          let query c ~alg ~limit q =
            Client.call c ~op:"query"
              [
                session;
                ("query", Json.Str q);
                ("algorithm", Json.Str alg);
                ("answers", Json.Num (float_of_int limit));
              ]
          in
          let identical = ref true in
          let check (alg, q, limit) result =
            let fail what =
              identical := false;
              mismatch := true;
              Format.eprintf "shard sweep: %s %s (answers %d) at shards = %d: %s@."
                alg q limit shards what
            in
            match result with
            | Error (code, m) -> fail (code ^ ": " ^ m)
            | Ok reply -> (
              let key = answer_key reply in
              let id = Printf.sprintf "%s %s %d" alg q limit in
              match Hashtbl.find_opt baseline id with
              | None -> Hashtbl.replace baseline id key
              | Some expected ->
                if not (String.equal key expected) then
                  fail "diverged from shards = 1")
          in
          (* Warm pass: populate/check the baselines outside the timing. *)
          List.iter
            (fun alg ->
              List.iter
                (fun q -> check (alg, q, 20) (query c ~alg ~limit:20 q))
                queries)
            algorithms;
          let serial =
            List.init runs (fun _ ->
                Gc.compact ();
                let lats = ref [] in
                let t0 = Unix.gettimeofday () in
                for i = 0 to requests - 1 do
                  let q = List.nth queries (i mod List.length queries) in
                  let s = Unix.gettimeofday () in
                  let r = query c ~alg:"basic" ~limit:20 q in
                  lats := (Unix.gettimeofday () -. s) :: !lats;
                  check ("basic", q, 20) r
                done;
                (!lats, Unix.gettimeofday () -. t0))
          in
          let cases =
            List.concat_map
              (fun q -> List.map (fun alg -> (alg, q)) algorithms)
              queries
          in
          let concurrent =
            List.init runs (fun run ->
                Gc.compact ();
                let conns =
                  Array.init clients (fun _ -> Client.connect ~framed:true ~port ())
                in
                (* One limit per client, run and round, none used before:
                   every request is an answer-cache miss on its worker. *)
                let results = Array.make clients [] in
                let t0 = Unix.gettimeofday () in
                let threads =
                  Array.mapi
                    (fun i cl ->
                      Thread.create
                        (fun () ->
                          (* Each client starts at a different case. *)
                          let n = List.length cases in
                          results.(i) <-
                            List.init (rounds * n) (fun j ->
                                let round = j / n in
                                let limit = 21 + (clients * ((rounds * run) + round)) + i in
                                let alg, q = List.nth cases ((j + (i * n / clients)) mod n) in
                                let s = Unix.gettimeofday () in
                                let r = query cl ~alg ~limit q in
                                ((alg, q, limit), r, Unix.gettimeofday () -. s)))
                        ())
                    conns
                in
                Array.iter Thread.join threads;
                let seconds = Unix.gettimeofday () -. t0 in
                Array.iter Client.close conns;
                let all = List.concat (Array.to_list results) in
                List.iter (fun (case, r, _) -> check case r) all;
                (List.map (fun (_, _, l) -> l) all, seconds))
          in
          (match Client.call c ~op:"shutdown" [] with
          | Ok _ -> ()
          | Error (code, m) ->
            Format.eprintf "shard sweep: shutdown: %s: %s@." code m);
          Client.close c;
          Router.wait router;
          let serial_col = timed_column "serial" ~requests serial in
          let conc_requests = clients * rounds * List.length cases in
          let conc_col =
            timed_column "concurrent" ~requests:conc_requests concurrent
              ~extra:[ ("clients", Json.Num (float_of_int clients)) ]
          in
          let summary (_, col) =
            let get k = Json.to_float (member "median" (member k col)) in
            Printf.sprintf "p50 %.4fs  p95 %.4fs  %6.0f req/s" (get "p50")
              (get "p95") (Json.to_float (member "req_per_s_median" col))
          in
          Format.printf
            "  shards = %d  serial: %s  concurrent: %s  %s@." shards
            (summary serial_col) (summary conc_col)
            (if !identical then "bit-identical" else "DIVERGED");
          Json.Obj
            [
              ("shards", Json.Num (float_of_int shards));
              serial_col;
              conc_col;
              ("identical_to_shards1", Json.Bool !identical);
            ])
      shard_sweep
  in
  let json =
    Json.Obj
      [
        ("git_rev", Json.Str (git_rev ()));
        ( "config",
          Json.Obj
            [
              ("seed", Json.Num 7.);
              ("scale", Json.Num 0.01);
              ("h", Json.Num 8.);
              ("queries", Json.Arr (List.map (fun q -> Json.Str q) queries));
              ( "algorithms",
                Json.Arr (List.map (fun a -> Json.Str a) algorithms) );
              ("runs", Json.Num (float_of_int runs));
              ("serial_requests_per_run", Json.Num (float_of_int requests));
              ("concurrent_clients", Json.Num (float_of_int clients));
              ("concurrent_rounds", Json.Num (float_of_int rounds));
            ] );
        ("rows", Json.Arr rows);
      ]
  in
  let oc = open_out shard_file in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote shard-router sweep to %s@.@." shard_file;
  if !mismatch then begin
    Format.eprintf "shard sweep: a sharded answer diverged from shards = 1@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 1g: the top-k sweep (id "topk").

   Per query (Q4, Q7, Q10) × h ∈ {8, 100} × k ∈ {1, 5, 20}: top-k on the
   plan engine (one factorized pass over the q-sharing partitions in
   descending mass order), the interpreted u-trace top-k, and the exact
   factorized e-MQO beside them.  Each column is 3 runs on one context,
   each from a compacted heap; the JSON keeps every run with its min
   and median, the git revision and the config.

   Exits non-zero when a top-k answer is invalid against the exact answer
   (more than k tuples, a probability above the exact one, or — where the
   k-th and (k+1)-th exact probabilities are more than [Prob.eps] apart —
   a tuple set other than the exact first k), or when the plan-engine
   top-5 of Q4 at h = 100 takes more than 2× factorized e-MQO (min of
   3). *)

let topk_file = "BENCH_topk.json"

(* Whether [got] is a valid top-k of the exact answer [exact]. *)
let topk_valid ~k exact got =
  let truth = Urm.Answer.top_k exact (k + 1) in
  let first_k = List.filteri (fun i _ -> i < k) truth in
  let separated =
    match List.rev truth with
    | (_, next) :: (_, kth) :: _ when List.length truth = k + 1 ->
      kth -. next > Urm.Prob.eps
    | _ -> true
  in
  let got = Urm.Answer.to_list got in
  List.length got = List.length first_k
  && List.for_all
       (fun (t, p) -> p <= Urm.Answer.prob_of exact t +. Urm.Prob.eps)
       got
  && ((not separated)
     || List.for_all
          (fun (t, _) -> List.exists (fun (u, _) -> Urm.Answer.tuple_equal t u) first_k)
          got)

let run_topk quick =
  let module E = Urm_workload.Experiments in
  let module J = Urm_util.Json in
  let cfg = if quick then E.quick else E.default in
  let runs = 3 in
  let queries = [ "Q4"; "Q7"; "Q10" ] and h_sweep = [ 8; 100 ] in
  let ks = [ 1; 5; 20 ] in
  let p = Urm_workload.Pipeline.create ~seed:cfg.E.seed ~scale:cfg.E.scale () in
  (* [runs] runs of [f] on one context (its plan cache warms as a
     service session's does), each from a compacted heap: the seconds of
     every run and the last run's result. *)
  let measure engine target f =
    let ctx = Urm_workload.Pipeline.ctx ~engine p target in
    let last = ref None in
    let secs =
      List.init runs (fun _ ->
          Gc.compact ();
          let t0 = Unix.gettimeofday () in
          let r = f ctx in
          let dt = Unix.gettimeofday () -. t0 in
          last := Some r;
          dt)
    in
    (secs, Option.get !last)
  in
  let invalid = ref false and gate = ref None in
  Format.printf "=== top-k sweep (plan engine vs u-trace vs exact e-MQO, min of %d) ===@.@."
    runs;
  let rows =
    List.concat_map
      (fun qname ->
        let target, q = Urm_workload.Queries.by_name qname in
        List.concat_map
          (fun h ->
            let ms = Urm_workload.Pipeline.mappings p target ~h in
            let emqo_secs, exact =
              measure Urm_relalg.Compile.Vectorized target (fun ctx ->
                  (Urm.Algorithms.run Urm.Algorithms.Emqo ctx q ms).Urm.Report.answer)
            in
            List.map
              (fun k ->
                let topk engine =
                  let secs, r =
                    measure engine target (fun ctx -> Urm.Topk.run ~k ctx q ms)
                  in
                  let valid = topk_valid ~k exact r.Urm.Topk.report.Urm.Report.answer in
                  if not valid then invalid := true;
                  ( secs,
                    [
                      ("visited_eunits", J.Num (float_of_int r.Urm.Topk.visited_eunits));
                      ("stopped_early", J.Bool r.Urm.Topk.stopped_early);
                      ("valid", J.Bool valid);
                    ],
                    valid )
                in
                let plan_secs, plan_extra, plan_ok = topk Urm_relalg.Compile.Vectorized in
                let ut_secs, ut_extra, ut_ok = topk Urm_relalg.Compile.Interpreted in
                if qname = "Q4" && h = 100 && k = 5 then
                  gate := Some (min_of plan_secs, min_of emqo_secs);
                Format.printf
                  "  %-4s h=%-4d k=%-3d plan top-k %8.4fs  u-trace top-k %8.4fs  \
                   e-MQO %8.4fs%s@."
                  qname h k (min_of plan_secs) (min_of ut_secs) (min_of emqo_secs)
                  (if plan_ok && ut_ok then "" else "  INVALID");
                J.Obj
                  [
                    ("query", J.Str qname);
                    ("h", J.Num (float_of_int h));
                    ("k", J.Num (float_of_int k));
                    column "plan_topk" plan_secs plan_extra;
                    column "utrace_topk" ut_secs ut_extra;
                    column "factorized_emqo" emqo_secs [];
                  ])
              ks)
          h_sweep)
      queries
  in
  let plan, emqo = Option.get !gate in
  let ratio = plan /. emqo in
  let pass = ratio <= 2. in
  Format.printf
    "@.gate (Q4, h=100, k=5, min of %d): plan top-k %.4fs vs factorized e-MQO \
     %.4fs (%.2fx, bound 2x) — %s@."
    runs plan emqo ratio (if pass then "PASS" else "FAIL");
  let json =
    J.Obj
      [
        ("git_rev", J.Str (git_rev ()));
        ( "config",
          J.Obj
            [
              ("target", J.Str "Excel");
              ("seed", J.Num (float_of_int cfg.E.seed));
              ("scale", J.Num cfg.E.scale);
              ("runs", J.Num (float_of_int runs));
              ("gc_compact_before_each_run", J.Bool true);
            ] );
        ("rows", J.Arr rows);
        ( "gate",
          J.Obj
            [
              ("query", J.Str "Q4");
              ("h", J.Num 100.);
              ("k", J.Num 5.);
              ("plan_topk_min", J.Num plan);
              ("factorized_emqo_min", J.Num emqo);
              ("ratio", J.Num ratio);
              ("bound", J.Num 2.);
              ("pass", J.Bool pass);
            ] );
      ]
  in
  let oc = open_out topk_file in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote top-k sweep to %s@.@." topk_file;
  if !invalid then begin
    Format.eprintf "top-k sweep: a top-k answer is invalid against the exact answer@.";
    exit 1
  end;
  if not pass then begin
    Format.eprintf
      "top-k gate FAILED: Q4 plan-engine top-5 at h = 100 must take at most 2x \
       factorized e-MQO@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Mapping-enumeration sweep: [Murty.k_best], which reoptimises every
   subproblem from its parent's potentials (one augmenting path per
   child), against the reference that solves each child from scratch
   ([Murty_ref]).  Per target (Excel, Noris, Paragon; the matcher's score
   matrix against TPC-H) × h ∈ {8, 100, 300, 1000} ({8, 100} quick): 3
   runs of each, each from a compacted heap, with min and median.
   Written to BENCH_murty.json.  Exits non-zero unless every new list
   equals the reference's: the same pair lists in the same order, scores
   equal bit for bit. *)

let murty_file = "BENCH_murty.json"

let run_murty quick =
  let module J = Urm_util.Json in
  let module M = Urm_bipartite.Murty in
  let runs = 3 in
  let h_sweep = if quick then [ 8; 100 ] else [ 8; 100; 300; 1000 ] in
  let measure = measure runs in
  let same (a : M.assignment) (b : M.assignment) =
    Int64.equal (Int64.bits_of_float a.score) (Int64.bits_of_float b.score)
    && a.pairs = b.pairs
  in
  let diverged = ref false in
  Format.printf "=== mapping enumeration (reoptimised vs reference Murty, min of %d) ===@.@."
    runs;
  let rows =
    List.concat_map
      (fun (name, target) ->
        let cands =
          Urm_matcher.Match.candidates ~source:Urm_tpch.Gen.schema ~target ()
        in
        let _, _, weights = Urm.Mapgen.weights cands in
        let n = Array.length weights and m = Array.length weights.(0) in
        List.map
          (fun h ->
            let ref_secs, expected =
              measure (fun () -> Murty_ref.k_best ~weights ~k:h)
            in
            let new_secs, got = measure (fun () -> M.k_best ~weights ~k:h) in
            let identical =
              List.length got = List.length expected && List.for_all2 same got expected
            in
            if not identical then diverged := true;
            let speedup = min_of ref_secs /. min_of new_secs in
            Format.printf
              "  %-8s h=%-5d reference %8.4fs  reoptimised %8.4fs  (%5.1fx)%s@." name h
              (min_of ref_secs) (min_of new_secs) speedup
              (if identical then "" else "  DIVERGED");
            J.Obj
              [
                ("target", J.Str name);
                ("h", J.Num (float_of_int h));
                ("rows", J.Num (float_of_int n));
                ("cols", J.Num (float_of_int m));
                ("mappings", J.Num (float_of_int (List.length got)));
                column "reference" ref_secs [];
                column "reoptimised" new_secs [];
                ("speedup_min", J.Num speedup);
                ("identical", J.Bool identical);
              ])
          h_sweep)
      Urm_workload.Targets.all
  in
  let json =
    J.Obj
      [
        ("git_rev", J.Str (git_rev ()));
        ( "config",
          J.Obj
            [
              ("source", J.Str "TPC-H");
              ("h", J.Arr (List.map (fun h -> J.Num (float_of_int h)) h_sweep));
              ("runs", J.Num (float_of_int runs));
              ("gc_compact_before_each_run", J.Bool true);
            ] );
        ("rows", J.Arr rows);
      ]
  in
  let oc = open_out murty_file in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote mapping-enumeration sweep to %s@.@." murty_file;
  if !diverged then begin
    Format.eprintf "murty sweep: a k-best list differs from the reference's@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks, one per table/figure. *)

let micro_tests () =
  (* One shared miniature workload so each staged closure is cheap enough
     for Bechamel to sample many times. *)
  let p = Urm_workload.Pipeline.create ~seed:3 ~scale:0.01 () in
  let excel = Urm_workload.Targets.excel in
  let ctx ?engine q_name =
    let target, q = Urm_workload.Queries.by_name q_name in
    (Urm_workload.Pipeline.ctx ?engine p target, q, Urm_workload.Pipeline.mappings p target ~h:10)
  in
  let run ?engine alg q_name () =
    let ctx, q, ms = ctx ?engine q_name in
    ignore (Urm.Algorithms.run alg ctx q ms)
  in
  (* The phase-breakdown, strategy, memo and top-k tables run the
     interpreted engine, as in {!Urm_workload.Experiments}. *)
  let interpreted = Urm_relalg.Compile.Interpreted in
  let excel_mappings = Urm_workload.Pipeline.mappings p excel ~h:10 in
  let stage = Bechamel.Staged.stage in
  [
    ("fig9a", stage (fun () -> ignore (Urm.Overlap.o_ratio excel_mappings)));
    ("fig10a", stage (run ~engine:interpreted Urm.Algorithms.Basic "Q1"));
    ("fig10b", stage (run Urm.Algorithms.Ebasic "Q4"));
    ("fig10c", stage (run Urm.Algorithms.Emqo "Q4"));
    ("fig11a", stage (run (Urm.Algorithms.Osharing Urm.Eunit.Sef) "Q1"));
    ("fig11b", stage (run Urm.Algorithms.Qsharing "Q4"));
    ("fig11c", stage (run (Urm.Algorithms.Osharing Urm.Eunit.Sef) "Q4"));
    ( "fig11d",
      let q = Urm_workload.Sweeps.selections 3 in
      let c = Urm_workload.Pipeline.ctx p excel in
      stage (fun () -> ignore (Urm.Algorithms.run (Urm.Algorithms.Osharing Urm.Eunit.Sef) c q excel_mappings)) );
    ( "fig11e",
      let q = Urm_workload.Sweeps.self_joins 1 in
      let c = Urm_workload.Pipeline.ctx p excel in
      stage (fun () -> ignore (Urm.Algorithms.run (Urm.Algorithms.Osharing Urm.Eunit.Sef) c q excel_mappings)) );
    ("fig11f", stage (run ~engine:interpreted (Urm.Algorithms.Osharing Urm.Eunit.Random) "Q5"));
    ("tab4", stage (run ~engine:interpreted (Urm.Algorithms.Osharing Urm.Eunit.Snf) "Q4"));
    ( "fig12a",
      let c, q, ms = ctx ~engine:interpreted "Q4" in
      stage (fun () -> ignore (Urm.Topk.run ~k:1 c q ms)) );
    ( "fig12b",
      let c, q, ms = ctx ~engine:interpreted "Q7" in
      stage (fun () -> ignore (Urm.Topk.run ~k:1 c q ms)) );
    ( "fig12c",
      let c, q, ms = ctx ~engine:interpreted "Q10" in
      stage (fun () -> ignore (Urm.Topk.run ~k:1 c q ms)) );
    ( "abl-memo",
      let c, q, ms = ctx ~engine:interpreted "Q3" in
      stage (fun () -> ignore (Urm.Osharing.run ~use_memo:false c q ms)) );
    ( "abl-index",
      let c, q, ms = ctx "Q1" in
      stage (fun () -> ignore (Urm.Algorithms.run Urm.Algorithms.Ebasic c q ms)) );
    ( "abl-ptree",
      let _, q, ms = ctx "Q4" in
      let target, _ = Urm_workload.Queries.by_name "Q4" in
      stage (fun () -> ignore (Urm.Ptree.partition target q ms)) );
  ]

let run_bechamel only =
  let open Bechamel in
  let tests =
    micro_tests ()
    |> List.filter (fun (id, _) -> wanted only id)
    |> List.map (fun (id, staged) -> Test.make ~name:id staged)
  in
  if tests <> [] then begin
    Format.printf "=== bechamel micro-benchmarks (one per table/figure) ===@.";
    let grouped = Test.make_grouped ~name:"urm" ~fmt:"%s/%s" tests in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false ()
    in
    let raws = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
    let ols =
      Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raws in
    let rows =
      Hashtbl.fold
        (fun name result acc ->
          let est =
            match Analyze.OLS.estimates result with
            | Some [ e ] -> e
            | _ -> Float.nan
          in
          (name, est) :: acc)
        results []
      |> List.sort compare
    in
    List.iter
      (fun (name, ns) ->
        if Float.is_nan ns then Format.printf "  %-24s (no estimate)@." name
        else if ns > 1e9 then Format.printf "  %-24s %10.3f  s/run@." name (ns /. 1e9)
        else if ns > 1e6 then Format.printf "  %-24s %10.3f ms/run@." name (ns /. 1e6)
        else Format.printf "  %-24s %10.3f µs/run@." name (ns /. 1e3))
      rows
  end

let () =
  let only, quick, skip_bechamel, skip_tables = parse_args () in
  if not skip_tables then run_tables only quick;
  if not skip_tables && wanted only "eval" then run_eval quick;
  if not skip_tables && wanted only "share" then run_share quick;
  if not skip_tables && wanted only "anytime" then run_anytime quick;
  if not skip_tables && wanted only "incr" then run_incr quick;
  if not skip_tables && wanted only "shard" then run_shard quick;
  if not skip_tables && wanted only "topk" then run_topk quick;
  if not skip_tables && wanted only "murty" then run_murty quick;
  if not skip_bechamel then run_bechamel only
