(* Focused tests of the o-sharing machinery: e-units, u-trace traversal,
   strategies, memoisation, early abort. *)
open Urm_relalg

let source =
  Schema.make "S"
    [
      ( "Customer",
        [
          ("cid", Schema.TInt); ("cname", Schema.TStr); ("ophone", Schema.TStr);
          ("hphone", Schema.TStr); ("oaddr", Schema.TStr); ("haddr", Schema.TStr);
        ] );
      ("C_Order", [ ("oid", Schema.TInt); ("cid", Schema.TInt); ("amount", Schema.TFloat) ]);
    ]

let target =
  Schema.make "T"
    [
      ( "Person",
        [ ("pname", Schema.TStr); ("phone", Schema.TStr); ("addr", Schema.TStr) ] );
      ("Order", [ ("price", Schema.TFloat); ("owner", Schema.TInt) ]);
    ]

let s v = Value.Str v
let i v = Value.Int v
let f v = Value.Float v

let catalog () =
  let cat = Catalog.create () in
  Catalog.add cat "Customer"
    (Relation.create
       ~cols:[ "cid"; "cname"; "ophone"; "hphone"; "oaddr"; "haddr" ]
       [
         [| i 1; s "Alice"; s "123"; s "789"; s "aaa"; s "hk" |];
         [| i 2; s "Bob"; s "456"; s "123"; s "bbb"; s "hk" |];
         [| i 3; s "Cindy"; s "456"; s "789"; s "aaa"; s "aaa" |];
       ]);
  Catalog.add cat "C_Order"
    (Relation.create ~cols:[ "oid"; "cid"; "amount" ]
       [ [| i 10; i 1; f 5. |]; [| i 11; i 3; f 7. |] ]);
  cat

let ctx () = Urm.Ctx.make ~catalog:(catalog ()) ~source ~target ()
let mk id prob pairs = Urm.Mapping.make ~id ~prob ~score:prob pairs

let mappings () =
  [
    mk 0 0.4
      [ ("Person.phone", "Customer.ophone"); ("Person.addr", "Customer.oaddr");
        ("Order.price", "C_Order.amount"); ("Order.owner", "C_Order.cid") ];
    mk 1 0.35
      [ ("Person.phone", "Customer.ophone"); ("Person.addr", "Customer.haddr");
        ("Order.price", "C_Order.amount"); ("Order.owner", "C_Order.cid") ];
    mk 2 0.25
      [ ("Person.phone", "Customer.hphone"); ("Person.addr", "Customer.haddr");
        ("Order.price", "C_Order.amount") ];
  ]

let q_sel () =
  Urm.Query.make ~name:"sel" ~target
    ~aliases:[ ("Person", "Person") ]
    ~selections:[ (Urm.Query.at "Person" "addr", s "aaa") ]
    ~projection:[ Urm.Query.at "Person" "phone" ]
    ()

let test_init_pending () =
  let u = Urm.Eunit.init (q_sel ()) (mappings ()) in
  Alcotest.(check int) "pieces empty" 0 (List.length u.Urm.Eunit.pieces);
  Alcotest.(check int) "pending = sel + output" 2 (List.length u.Urm.Eunit.pending);
  Alcotest.(check (float 1e-9)) "mass" 1.0 (Urm.Eunit.mass u)

let collect_leaves ?(strategy = Urm.Eunit.Sef) q ms =
  let env = Urm.Eunit.make_env ~strategy (ctx ()) q in
  let leaves = ref [] in
  let finished =
    Urm.Eunit.run_qt env (Urm.Eunit.init q ms) ~emit:(fun l ->
        leaves := l :: !leaves;
        true)
  in
  (env, List.rev !leaves, finished)

let leaf_mass = function
  | Urm.Eunit.Tuples (_, m) -> m
  | Urm.Eunit.Null_answer m -> m

let test_leaves_partition_probability () =
  let _, leaves, finished = collect_leaves (q_sel ()) (mappings ()) in
  Alcotest.(check bool) "finished" true finished;
  let total = List.fold_left (fun acc l -> acc +. leaf_mass l) 0. leaves in
  Alcotest.(check (float 1e-9)) "mass partitioned" 1.0 total

let test_leaves_sorted_by_mass () =
  (* partitions are visited in decreasing mass order at each level; with a
     query whose only partition point is the selection attribute (the
     projection repeats it), leaves map 1:1 onto top-level branches and must
     come out mass-descending *)
  let q =
    Urm.Query.make ~name:"one-level" ~target
      ~aliases:[ ("Person", "Person") ]
      ~selections:[ (Urm.Query.at "Person" "addr", s "aaa") ]
      ~projection:[ Urm.Query.at "Person" "addr" ]
      ()
  in
  let _, leaves, _ = collect_leaves q (mappings ()) in
  let masses = List.map leaf_mass leaves in
  let rec desc = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && desc rest
    | _ -> true
  in
  Alcotest.(check bool) "descending" true (desc masses);
  Alcotest.(check int) "two branches" 2 (List.length masses)

let test_early_abort () =
  let env = Urm.Eunit.make_env ~strategy:Urm.Eunit.Sef (ctx ()) (q_sel ()) in
  let count = ref 0 in
  let finished =
    Urm.Eunit.run_qt env (Urm.Eunit.init (q_sel ()) (mappings ())) ~emit:(fun _ ->
        incr count;
        false)
  in
  Alcotest.(check bool) "aborted" false finished;
  Alcotest.(check int) "exactly one leaf seen" 1 !count

let test_all_strategies_same_answer () =
  let reference = ref None in
  List.iter
    (fun strategy ->
      let _, leaves, _ = collect_leaves ~strategy (q_sel ()) (mappings ()) in
      let acc = Urm.Answer.create [ "Person.phone" ] in
      List.iter
        (fun l ->
          match l with
          | Urm.Eunit.Tuples (ts, m) -> List.iter (fun t -> Urm.Answer.add acc t m) ts
          | Urm.Eunit.Null_answer m -> Urm.Answer.add_null acc m)
        leaves;
      match !reference with
      | None -> reference := Some acc
      | Some r -> Alcotest.(check bool) "same" true (Urm.Answer.equal r acc))
    [ Urm.Eunit.Sef; Urm.Eunit.Snf; Urm.Eunit.Random ]

let test_random_strategy_seed_invariance () =
  (* different seeds may change operator order but never the answer *)
  let answers =
    List.map
      (fun seed ->
        let env = Urm.Eunit.make_env ~seed ~strategy:Urm.Eunit.Random (ctx ()) (q_sel ()) in
        let acc = Urm.Answer.create [ "Person.phone" ] in
        ignore
          (Urm.Eunit.run_qt env (Urm.Eunit.init (q_sel ()) (mappings ())) ~emit:(fun l ->
               (match l with
               | Urm.Eunit.Tuples (ts, m) -> List.iter (fun t -> Urm.Answer.add acc t m) ts
               | Urm.Eunit.Null_answer m -> Urm.Answer.add_null acc m);
               true));
        acc)
      [ 1; 2; 3; 42 ]
  in
  match answers with
  | first :: rest ->
    List.iter (fun a -> Alcotest.(check bool) "seed invariant" true (Urm.Answer.equal first a)) rest
  | [] -> assert false

let test_memo_hits_under_random () =
  (* a two-alias query where branching on Person happens before the Order
     selection: the Order-side operator repeats identically across sibling
     branches and must hit the memo at least once under some ordering *)
  let q =
    Urm.Query.make ~name:"two" ~target
      ~aliases:[ ("Person", "Person"); ("Order", "Order") ]
      ~selections:
        [
          (Urm.Query.at "Person" "addr", s "aaa");
          (Urm.Query.at "Order" "price", f 5.);
        ]
      ~projection:[ Urm.Query.at "Person" "phone" ]
      ()
  in
  let total_hits = ref 0 in
  List.iter
    (fun seed ->
      let env = Urm.Eunit.make_env ~seed ~strategy:Urm.Eunit.Random (ctx ()) q in
      ignore (Urm.Eunit.run_qt env (Urm.Eunit.init q (mappings ())) ~emit:(fun _ -> true));
      total_hits := !total_hits + Urm.Eunit.memo_hits env)
    [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check bool) "memo hit somewhere" true (!total_hits > 0)

let test_counters_accumulate () =
  let env, _, _ = collect_leaves (q_sel ()) (mappings ()) in
  let c = Urm.Eunit.counters env in
  Alcotest.(check bool) "operators executed" true (c.Eval.operators > 0);
  Alcotest.(check bool) "eunits created" true (Urm.Eunit.eunits_created env >= 1)

let test_unmapped_selection_goes_null () =
  let q =
    Urm.Query.make ~name:"pn" ~target
      ~aliases:[ ("Person", "Person") ]
      ~selections:[ (Urm.Query.at "Person" "pname", s "Zoe") ]
      ()
  in
  (* no mapping covers pname: every leaf is θ *)
  let _, leaves, _ = collect_leaves q (mappings ()) in
  List.iter
    (fun l ->
      match l with
      | Urm.Eunit.Null_answer _ -> ()
      | Urm.Eunit.Tuples _ -> Alcotest.fail "expected θ")
    leaves

let test_tracer () =
  let lines = ref [] in
  let _report, _stats =
    Urm.Osharing.run_with_stats ~tracer:(fun l -> lines := l :: !lines) (ctx ())
      (q_sel ()) (mappings ())
  in
  Alcotest.(check bool) "trace lines produced" true (List.length !lines > 3);
  Alcotest.(check bool) "mentions e-units" true
    (List.exists
       (fun l -> String.length l > 7 && String.sub l 0 7 = "e-unit ")
       !lines);
  (* no tracer → no crash, same answer *)
  let a1, _ = Urm.Osharing.run_with_stats (ctx ()) (q_sel ()) (mappings ()) in
  let a2, _ =
    Urm.Osharing.run_with_stats ~tracer:(fun _ -> ()) (ctx ()) (q_sel ()) (mappings ())
  in
  Alcotest.(check bool) "tracer does not change answers" true
    (Urm.Answer.equal a1.Urm.Report.answer a2.Urm.Report.answer)

(* Runs that share a metrics registry each report their own e-unit and
   memo-hit counts, while the registry keeps the running totals. *)
let test_counts_are_per_run () =
  let metrics = Urm_obs.Metrics.create () in
  let ctx = Urm.Ctx.make ~engine:Compile.Interpreted ~catalog:(catalog ()) ~source ~target () in
  let run () =
    let _, stats = Urm.Osharing.run_with_stats ~metrics ctx (q_sel ()) (mappings ()) in
    let top = Urm.Topk.run ~metrics ~k:1 ctx (q_sel ()) (mappings ()) in
    (stats, top.Urm.Topk.visited_eunits)
  in
  let s1, v1 = run () in
  let s2, v2 = run () in
  Alcotest.(check bool) "e-units counted" true (s1.Urm.Osharing.eunits > 0 && v1 > 0);
  Alcotest.(check int) "o-sharing e-units" s1.Urm.Osharing.eunits s2.Urm.Osharing.eunits;
  Alcotest.(check int) "o-sharing memo hits" s1.Urm.Osharing.memo_hits
    s2.Urm.Osharing.memo_hits;
  Alcotest.(check int) "top-k visited e-units" v1 v2;
  Alcotest.(check (option int)) "registry keeps the running total"
    (Some (2 * s1.Urm.Osharing.eunits))
    (Urm_obs.Metrics.find_counter metrics "o-sharing/eunit/executions")

let test_strategy_names () =
  Alcotest.(check string) "sef" "SEF" (Urm.Eunit.strategy_name Urm.Eunit.Sef);
  Alcotest.(check string) "snf" "SNF" (Urm.Eunit.strategy_name Urm.Eunit.Snf);
  Alcotest.(check string) "random" "Random" (Urm.Eunit.strategy_name Urm.Eunit.Random)

let suite =
  [
    Alcotest.test_case "init pending" `Quick test_init_pending;
    Alcotest.test_case "leaves partition probability" `Quick test_leaves_partition_probability;
    Alcotest.test_case "leaves sorted by mass" `Quick test_leaves_sorted_by_mass;
    Alcotest.test_case "early abort" `Quick test_early_abort;
    Alcotest.test_case "strategies agree" `Quick test_all_strategies_same_answer;
    Alcotest.test_case "random seed invariance" `Quick test_random_strategy_seed_invariance;
    Alcotest.test_case "memo hits under random" `Quick test_memo_hits_under_random;
    Alcotest.test_case "counters accumulate" `Quick test_counters_accumulate;
    Alcotest.test_case "unmapped selection → θ" `Quick test_unmapped_selection_goes_null;
    Alcotest.test_case "tracer" `Quick test_tracer;
    Alcotest.test_case "strategy names" `Quick test_strategy_names;
    Alcotest.test_case "e-unit counts are per run" `Quick test_counts_are_per_run;
  ]
