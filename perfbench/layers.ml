(* The per-layer metrics of a traced run.  Every workload reports every
   name (0 where its ops never reach the layer), in this order, which is
   also BENCHMARK.json's [per_layer] order.

   [*.self_ms] are per op of the workload: the layer's total self time
   over the traced pass divided by the traced ops, so across layers they
   add up to the mean traced op latency.  Counts are per op as well,
   except the [topk.*] figures, which are per top-k op. *)

open Common

let table =
  [
    ("tpch.generate_s", "s");
    ("bipartite.mappings_s", "s");
    ("service.open_session_s", "s");
    ("reformulate.self_ms", "ms");
    ("reformulate.units", "count");
    ("plan_cache.hit_ratio", "ratio");
    ("mqo.plan.self_ms", "ms");
    ("relalg.exec.self_ms", "ms");
    ("relalg.rows", "count");
    ("relalg.source_ops", "count");
    ("answer.fold.self_ms", "ms");
    ("answer.tuples", "count");
    ("factorized.executed", "count");
    ("factorized.replayed", "count");
    ("factorized.matched", "count");
    ("topk.self_ms", "ms");
    ("topk.visited_eunits", "count");
    ("topk.stopped_early_ratio", "ratio");
    ("client.rtt_ms", "ms");
    ("server.request_ms", "ms");
    ("client.wire_ms", "ms");
    ("frame.codec_ms", "ms");
    ("frame.bytes", "bytes");
    ("json.encode_ms", "ms");
    ("json.parse_ms", "ms");
    ("sql.parse_ms", "ms");
    ("cache.hit_ratio", "ratio");
    ("cache.evictions", "count");
    ("cache.invalidated", "count");
    ("incr.commit_ms", "ms");
    ("incr.catch_up_ms", "ms");
    ("incr.patched_ratio", "ratio");
    ("shard.partial_ms", "ms");
    ("shard.partial_bytes", "bytes");
    ("router.self_ms", "ms");
    ("router.merge_tuples", "count");
    ("router.broadcast_ms", "ms");
    ("host.cpu_s", "s");
    ("host.wait_s", "s");
    ("host.ref_ms", "ms");
    ("gc.major_collections", "count");
    ("trace.overhead_ratio", "ratio");
    ("trace.reconcile_err", "ratio");
    ("trace.unattributed_ratio", "ratio");
    ("trace.overrun_ratio", "ratio");
  ]

(* The stated reconciliation tolerance: layer self times, summed per op,
   must land within this share of the untraced mean op latency.  Self
   times telescope into the op span, so this measures the tracing
   overhead and the op time no layer span covers, not the breakdown
   itself; {!slack} checks the breakdown. *)
let tolerance = 0.10

(* How far a parent layer's children, summed over the run, may exceed
   the parent before the breakdown counts as wrong (see
   {!Trace.parent_totals}).  Probe children re-run a layer's calls
   outside the op and carry their own timing noise; a layer that does
   almost nothing beside its children (the fold on wide-h) sits near 0. *)
let slack = 0.10

(* Spans whose self time per op is reported, with the metric's name. *)
let self_layers =
  [
    ("reformulate", "reformulate.self_ms");
    ("mqo.plan", "mqo.plan.self_ms");
    ("relalg.exec", "relalg.exec.self_ms");
    ("answer.fold", "answer.fold.self_ms");
    ("topk", "topk.self_ms");
    ("frame.codec", "frame.codec_ms");
    ("json.encode", "json.encode_ms");
    ("json.parse", "json.parse_ms");
    ("sql.parse", "sql.parse_ms");
  ]

(* Trace-derived figures shared by every workload; [untraced] and
   [traced] ran the same number of rounds of the same op mix. *)
let of_trace ~untraced ~traced =
  let selfs = Trace.self_times () in
  let self n = Option.value ~default:0. (Hashtbl.find_opt selfs n) in
  let n_ops = float_of_int traced.ops in
  let per_op x = ratio x n_ops in
  let topk_ops = Trace.counted "topk.runs" in
  let lat_sum st = List.fold_left ( +. ) 0. (all_latencies st) in
  let untraced_mean = ratio (lat_sum untraced) (float_of_int untraced.ops) in
  let traced_sum = lat_sum traced in
  let attributed =
    Hashtbl.fold (fun name s acc -> if name = "op" then acc else acc +. s) selfs 0.
  in
  let op_total = List.fold_left ( +. ) 0. (Trace.durations "op") in
  let rtts = Trace.durations "client.rtt" in
  let reconcile = ratio (Float.abs (per_op attributed -. untraced_mean)) untraced_mean in
  let excess =
    List.map (fun (name, p, c) -> (name, ratio (c -. p) p)) (Trace.parent_totals ())
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let overrun_ratio = match excess with (_, e) :: _ -> Float.max 0. e | [] -> 0. in
  let v =
    List.map (fun (span, name) -> (name, ms (per_op (self span)))) self_layers
    @ [
        ("reformulate.units", per_op (Trace.counted "reformulate.units"));
        ("relalg.rows", per_op (Trace.counted "relalg.rows"));
        ("relalg.source_ops", per_op (Trace.counted "relalg.source_ops"));
        ("answer.tuples", per_op (Trace.counted "answer.tuples"));
        ("factorized.executed", per_op (Trace.counted "factorized.executed"));
        ("factorized.replayed", per_op (Trace.counted "factorized.replayed"));
        ("factorized.matched", per_op (Trace.counted "factorized.matched"));
        ("topk.visited_eunits", ratio (Trace.counted "topk.visited_eunits") topk_ops);
        ("topk.stopped_early_ratio", ratio (Trace.counted "topk.stopped_early") topk_ops);
        ("client.rtt_ms", ms (mean rtts));
        ("server.request_ms", ms (mean (Trace.durations "server.request")));
        ("client.wire_ms", ms (ratio (self "client.rtt") (float_of_int (List.length rtts))));
        ("frame.bytes", per_op (Trace.counted "frame.bytes"));
        ("trace.overhead_ratio",
          ratio (traced_sum -. lat_sum untraced) (lat_sum untraced));
        ("trace.reconcile_err", reconcile);
        ("trace.unattributed_ratio", ratio (self "op") op_total);
        ("trace.overrun_ratio", overrun_ratio);
      ]
  in
  Printf.printf
    "trace: layers sum to %.3f ms/op vs untraced %.3f ms/op (err %.1f%%, tolerance %.0f%%: %s); \
     tracing overhead %.1f%%\n%!"
    (ms (per_op attributed)) (ms untraced_mean) (100. *. reconcile) (100. *. tolerance)
    (if reconcile <= tolerance then "ok" else "OVER")
    (100. *. ratio (traced_sum -. lat_sum untraced) (lat_sum untraced));
  Printf.printf "trace: breakdown %s: children vs parent, summed per layer: %s (limit +%.0f%%)\n%!"
    (if overrun_ratio <= slack then "ok" else "INCONSISTENT")
    (String.concat ", "
       (List.filteri (fun i _ -> i < 4) (List.map (fun (n, e) -> Printf.sprintf "%s %+.1f%%" n (100. *. e)) excess)))
    (100. *. slack);
  if Trace.durations "server.request" <> [] then
    Printf.printf "trace: server.request clipped to the client round trip on %.1f%% of requests\n%!"
      (100. *. ratio (Trace.counted "server.clipped") (float_of_int (List.length rtts)));
  v

(* All per-layer metrics in table order; [values] may omit any. *)
let emit values =
  List.map
    (fun (name, unit_) ->
      metric name unit_ (Option.value ~default:0. (List.assoc_opt name values)))
    table
