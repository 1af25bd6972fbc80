(* The benchmark's entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--perturb]
     main.exe --child server|router

   Runs one workload as a closed loop with one client for S seconds,
   checks every answer, prints a summary and, as the last line, the result
   object: the end-to-end metrics with [--trace 0], the per-layer metrics
   with [--trace 1].  [--perturb] corrupts every produced answer before its
   check (the gate's self-test: the run must then report failures).
   [--child] runs the program under test for a service workload (see
   {!Child}). *)

open Common

let workloads =
  [
    ("q4-answers", fun ~seed ~seconds ~trace -> Lib_workloads.run Lib_workloads.q4_answers ~seed ~seconds ~trace);
    ("wide-h", fun ~seed ~seconds ~trace -> Lib_workloads.run Lib_workloads.wide_h ~seed ~seconds ~trace);
    ("serve-rw", Serve_workloads.serve_rw);
    ("shard-q4", Serve_workloads.shard_q4);
  ]

(* BENCHMARK.json's end-to-end metrics.  ops_per_s and query_p90_ms are
   measured and printed too, but host slow periods move them by 40-90%
   between runs (NOTES.md), beyond any bound the benchmark may set. *)
let gated = [ "setup_s"; "query_p50_ms"; "topk_p50_ms"; "peak_rss_mb" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (q4-answers|wide-h|serve-rw|shard-q4) --seed N \
     --seconds S --trace 0|1 [--perturb]";
  exit 2

let () =
  (* Shard workers re-execute this binary; become one when asked to. *)
  Urm_shard.Launcher.exec_if_worker ();
  (match Array.to_list Sys.argv with _ :: [ "--child"; kind ] -> Child.run_child kind | _ -> ());
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | "--perturb" :: rest -> Lib_workloads.perturb_flag := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload workloads with Some r -> r | None -> usage ()
  in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let st, e2e, layers = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  List.iter (fun m -> Printf.printf "%-22s %14.4f %s\n" m.name m.value m.unit_) e2e;
  List.iter
    (fun cls ->
      match samples st cls with
      | [] -> ()
      | xs -> Printf.printf "%-22s %14d samples\n" (cls ^ ".n") (List.length xs))
    [ "query"; "topk"; "write" ];
  (match samples st "write" with
  | [] -> ()
  | xs -> Printf.printf "%-22s %14.4f ms\n" "write_p50_ms" (ms (percentile 0.5 xs)));
  List.iter
    (fun (name, v) ->
      if String.length name > 5 && (String.sub name 0 5 = "host." || name = "gc.major_collections")
      then Printf.printf "%-22s %14.4f\n" name v)
    layers;
  Printf.printf "%-22s %14d of %d rounds\n" "host.fast_rounds" (List.length (host_rounds st))
    (List.length st.rounds);
  Printf.printf "%-22s %14.4f ratio (%d of %d ops)\n" "error_ratio"
    (ratio (float_of_int st.failed) (float_of_int st.attempted))
    st.failed st.attempted;
  let metrics =
    if !trace = 1 then Layers.emit layers
    else List.filter (fun m -> List.mem m.name gated) e2e
  in
  if !trace = 1 then
    List.iter (fun m -> Printf.printf "%-26s %14.4f %s\n" m.name m.value m.unit_) metrics;
  print_result ~correct:(st.failed = 0 && st.attempted > 0) st metrics
