(* Top-k queries: when only the most credible answers matter.

   The Noris schema's Q7 asks for item numbers and unit prices of a specific
   order.  Different mappings disagree about which source column holds the
   unit price, so answers carry real uncertainty; a top-k query returns the
   k most probable answers, visiting units of probability mass only until
   the bounds prove them.

   Run with: dune exec examples/topk_confidence.exe *)

let () =
  let pipeline = Urm_workload.Pipeline.create ~seed:5 ~scale:0.05 () in
  let target, q = Urm_workload.Queries.by_name "Q7" in
  let ctx = Urm_workload.Pipeline.ctx pipeline target in
  let mappings = Urm_workload.Pipeline.mappings pipeline target ~h:100 in
  Format.printf "Query: %a@.@." Urm.Query.pp q;

  (* Ground truth: the full probabilistic answer via o-sharing. *)
  let full = Urm.Algorithms.run (Urm.Algorithms.Osharing Urm.Eunit.Sef) ctx q mappings in
  Format.printf "Exact evaluation: %d distinct answers, %d source operators@."
    (Urm.Answer.size full.Urm.Report.answer)
    full.Urm.Report.source_operators;
  Format.printf "Three most probable:@.";
  List.iter
    (fun (t, p) ->
      Format.printf "  (%s) : %.3f@."
        (String.concat ", " (Array.to_list (Array.map Urm_relalg.Value.to_string t)))
        p)
    (Urm.Answer.top_k full.Urm.Report.answer 3);

  (* Top-k for increasing k: fewer units visited for small k. *)
  Format.printf "@.%-4s %-10s %-10s %s@." "k" "units" "operators" "early stop";
  List.iter
    (fun k ->
      let r = Urm.Topk.run ~k ctx q mappings in
      Format.printf "%-4d %-10d %-10d %b@." k r.Urm.Topk.visited_eunits
        r.Urm.Topk.report.Urm.Report.source_operators r.Urm.Topk.stopped_early)
    [ 1; 5; 10; 20 ];

  (* Soundness check: every top-3 tuple really is among the most probable. *)
  let top3 = Urm.Topk.run ~k:3 ctx q mappings in
  let truth = Urm.Answer.top_k full.Urm.Report.answer 3 in
  let threshold = match List.rev truth with [] -> 0. | (_, p) :: _ -> p in
  let sound =
    List.for_all
      (fun (t, _) -> Urm.Answer.prob_of full.Urm.Report.answer t >= threshold -. 1e-9)
      (Urm.Answer.to_list top3.Urm.Topk.report.Urm.Report.answer)
  in
  Format.printf "@.Top-3 matches the exact ranking: %b@." sound
