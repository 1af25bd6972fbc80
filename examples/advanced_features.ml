(* Beyond the paper: SQL input, grouped aggregates, threshold queries, and
   persistence of the matching.

   This example parses purchase-order queries from SQL, runs a grouped
   COUNT and a probability-threshold query, and shows the matching being
   saved to JSON and the source instance to CSV.

   Run with: dune exec examples/advanced_features.exe *)

let () =
  let pipeline = Urm_workload.Pipeline.create ~seed:31 ~scale:0.03 () in
  let target = Urm_workload.Targets.excel in
  let ctx = Urm_workload.Pipeline.ctx pipeline target in
  let mappings = Urm_workload.Pipeline.mappings pipeline target ~h:100 in

  (* 1. Queries straight from SQL. *)
  let parse s = Urm.Sql.parse_exn ~name:s ~target s in
  let q_mary = parse "SELECT telephone FROM PO WHERE invoiceTo = 'Mary'" in
  Format.printf "q1: %s@.@." (Urm.Sql.to_sql q_mary);

  (* 2. A grouped aggregate straight from SQL: orders per priority. *)
  let q_grouped =
    parse "SELECT COUNT(*) FROM PO WHERE deliverToStreet = 'Central' GROUP BY priority"
  in
  let r = Urm.Algorithms.run (Urm.Algorithms.Osharing Urm.Eunit.Sef) ctx q_grouped mappings in
  Format.printf "@.%s:@." (Urm.Sql.to_sql q_grouped);
  List.iter
    (fun (t, p) ->
      Format.printf "   (%s) : %.3f@."
        (String.concat ", " (Array.to_list (Array.map Urm_relalg.Value.to_string t)))
        p)
    (Urm.Answer.top_k r.Urm.Report.answer 4);

  (* 3. Threshold query: all answers with probability at least 0.5. *)
  let r = Urm.Threshold.run ~tau:0.5 ctx q_mary mappings in
  Format.printf "@.threshold τ=0.5 on q1: %d qualifying answers (early stop: %b)@."
    (Urm.Answer.size r.Urm.Threshold.report.Urm.Report.answer)
    r.Urm.Threshold.stopped_early;

  (* 4. Persist the matching and the data. *)
  let json_path = Filename.temp_file "urm_mappings" ".json" in
  Urm.Mapping_io.save json_path mappings;
  let reloaded = Urm.Mapping_io.load json_path in
  Format.printf "@.saved %d mappings to %s and reloaded %d@." (List.length mappings)
    json_path (List.length reloaded);
  let dir = Filename.temp_file "urm_data" "" in
  Sys.remove dir;
  Urm_relalg.Csv.export_catalog dir ctx.Urm.Ctx.catalog;
  let back = Urm_relalg.Csv.import_catalog ~schema:Urm_tpch.Gen.schema dir in
  Format.printf "exported the source instance to %s/ and re-imported %d rows@." dir
    (Urm_relalg.Catalog.total_rows back);

  (* 5. Reloaded artefacts answer queries identically. *)
  let ctx2 =
    Urm.Ctx.make ~catalog:back ~source:Urm_tpch.Gen.schema ~target ()
  in
  let a1 = (Urm.Algorithms.run (Urm.Algorithms.Osharing Urm.Eunit.Sef) ctx q_mary mappings).Urm.Report.answer in
  let a2 = (Urm.Algorithms.run (Urm.Algorithms.Osharing Urm.Eunit.Sef) ctx2 q_mary reloaded).Urm.Report.answer in
  Format.printf "round-tripped pipeline gives the same answer: %b@."
    (Urm.Answer.equal a1 a2)
