open Urm_relalg

(* ------------------------------------------------------------------ *)
(* A small self-contained fixture: the paper's running example (Figs 1-3). *)

let source =
  Schema.make "S"
    [
      ( "Customer",
        [
          ("cid", Schema.TInt); ("cname", Schema.TStr); ("ophone", Schema.TStr);
          ("hphone", Schema.TStr); ("mobile", Schema.TStr); ("oaddr", Schema.TStr);
          ("haddr", Schema.TStr); ("nid", Schema.TInt);
        ] );
      ( "C_Order",
        [ ("oid", Schema.TInt); ("cid", Schema.TInt); ("amount", Schema.TFloat) ] );
      ("Nation", [ ("nid", Schema.TInt); ("name", Schema.TStr) ]);
    ]

let target =
  Schema.make "T"
    [
      ( "Person",
        [
          ("pname", Schema.TStr); ("phone", Schema.TStr); ("addr", Schema.TStr);
          ("nation", Schema.TStr); ("gender", Schema.TStr);
        ] );
      ( "Order",
        [
          ("sname", Schema.TStr); ("item", Schema.TStr); ("status", Schema.TStr);
          ("price", Schema.TFloat); ("total", Schema.TFloat);
        ] );
    ]

let s v = Value.Str v
let i v = Value.Int v
let f v = Value.Float v

let catalog () =
  let cat = Catalog.create () in
  Catalog.add cat "Customer"
    (Relation.create
       ~cols:[ "cid"; "cname"; "ophone"; "hphone"; "mobile"; "oaddr"; "haddr"; "nid" ]
       [
         [| i 1; s "Alice"; s "123"; s "789"; s "555"; s "aaa"; s "hk"; i 1 |];
         [| i 2; s "Bob"; s "456"; s "123"; s "556"; s "bbb"; s "hk"; i 1 |];
         [| i 3; s "Cindy"; s "456"; s "789"; s "557"; s "aaa"; s "aaa"; i 2 |];
       ]);
  Catalog.add cat "C_Order"
    (Relation.create
       ~cols:[ "oid"; "cid"; "amount" ]
       [
         [| i 10; i 1; f 5. |]; [| i 11; i 1; f 7.5 |]; [| i 12; i 3; f 2.25 |];
       ]);
  Catalog.add cat "Nation"
    (Relation.create ~cols:[ "nid"; "name" ] [ [| i 1; s "HK" |]; [| i 2; s "CN" |] ]);
  cat

let ctx () = Urm.Ctx.make ~catalog:(catalog ()) ~source ~target ()

let mk id prob pairs = Urm.Mapping.make ~id ~prob ~score:prob pairs

(* The five mappings of Fig. 3 (restricted to attributes we model). *)
let fig3_mappings () =
  [
    mk 0 0.3
      [ ("Person.pname", "Customer.cname"); ("Person.phone", "Customer.ophone");
        ("Person.addr", "Customer.oaddr"); ("Person.nation", "Nation.name");
        ("Order.price", "C_Order.amount") ];
    mk 1 0.2
      [ ("Person.pname", "Customer.cname"); ("Person.phone", "Customer.ophone");
        ("Person.addr", "Customer.oaddr"); ("Person.nation", "Nation.name");
        ("Person.gender", "Customer.nid") ];
    mk 2 0.2
      [ ("Person.pname", "Customer.cname"); ("Person.phone", "Customer.ophone");
        ("Person.addr", "Customer.haddr"); ("Person.nation", "Nation.name");
        ("Order.price", "C_Order.amount") ];
    mk 3 0.2
      [ ("Person.pname", "Customer.cname"); ("Person.phone", "Customer.hphone");
        ("Person.addr", "Customer.haddr"); ("Person.nation", "Nation.name") ];
    mk 4 0.1
      [ ("Person.pname", "Customer.mobile"); ("Person.phone", "Customer.ophone");
        ("Person.addr", "Customer.haddr"); ("Order.item", "Nation.name");
        ("Order.price", "C_Order.amount") ];
  ]

(* π_phone σ_addr='aaa' Person — the paper's §III-B example. *)
let q_paper () =
  Urm.Query.make ~name:"q" ~target
    ~aliases:[ ("Person", "Person") ]
    ~selections:[ (Urm.Query.at "Person" "addr", s "aaa") ]
    ~projection:[ Urm.Query.at "Person" "phone" ]
    ()

(* ------------------------------------------------------------------ *)
(* Mapping *)

let test_mapping_one_to_one () =
  Alcotest.check_raises "dup target"
    (Invalid_argument "Mapping.make: duplicate target Person.phone") (fun () ->
      ignore
        (mk 0 1.
           [ ("Person.phone", "Customer.ophone"); ("Person.phone", "Customer.hphone") ]));
  Alcotest.check_raises "dup source"
    (Invalid_argument "Mapping.make: duplicate source Customer.ophone") (fun () ->
      ignore
        (mk 0 1.
           [ ("Person.phone", "Customer.ophone"); ("Person.pname", "Customer.ophone") ]))

let test_mapping_lookup () =
  let m = List.hd (fig3_mappings ()) in
  Alcotest.(check (option string)) "phone" (Some "Customer.ophone")
    (Urm.Mapping.source_of m "Person.phone");
  Alcotest.(check (option string)) "missing" None (Urm.Mapping.source_of m "Person.gender");
  Alcotest.(check int) "size" 5 (Urm.Mapping.size m)

let test_mapping_o_ratio () =
  let ms = fig3_mappings () in
  let m0 = List.nth ms 0 and m1 = List.nth ms 1 in
  (* m0 ∩ m1 = 4 shared pairs; union = 6. *)
  Alcotest.(check (float 1e-9)) "pairwise" (4. /. 6.) (Urm.Mapping.o_ratio m0 m1);
  Alcotest.(check (float 1e-9)) "self" 1. (Urm.Mapping.o_ratio m0 m0)

let test_mapping_normalize () =
  let ms = Urm.Mapping.normalize (fig3_mappings ()) in
  Alcotest.(check (float 1e-9)) "sums to 1" 1. (Urm.Mapping.total_prob ms)

(* ------------------------------------------------------------------ *)
(* Query *)

let test_query_validation () =
  Alcotest.check_raises "unknown relation"
    (Invalid_argument "Query.make: unknown target relation Nope") (fun () ->
      ignore (Urm.Query.make ~name:"x" ~target ~aliases:[ ("A", "Nope") ] ()));
  Alcotest.check_raises "unknown attribute"
    (Invalid_argument "Query.make: unknown attribute Person.zzz") (fun () ->
      ignore
        (Urm.Query.make ~name:"x" ~target
           ~aliases:[ ("Person", "Person") ]
           ~selections:[ (Urm.Query.at "Person" "zzz", s "1") ]
           ()));
  Alcotest.check_raises "unknown alias"
    (Invalid_argument "Query.make: unknown alias Q") (fun () ->
      ignore
        (Urm.Query.make ~name:"x" ~target
           ~aliases:[ ("Person", "Person") ]
           ~selections:[ (Urm.Query.at "Q" "phone", s "1") ]
           ()))

let test_query_referenced_and_output () =
  let q = q_paper () in
  Alcotest.(check (list string)) "referenced"
    [ "Person.addr"; "Person.phone" ]
    (List.map Urm.Query.tattr_to_string (Urm.Query.referenced_attrs q));
  Alcotest.(check (list string)) "output"
    [ "Person.phone" ]
    (List.map Urm.Query.tattr_to_string (Urm.Query.output_attrs q))

let test_query_operators () =
  let q2 =
    Urm.Query.make ~name:"q2" ~target
      ~aliases:[ ("Person", "Person"); ("Order", "Order") ]
      ~selections:
        [ (Urm.Query.at "Person" "addr", s "hk"); (Urm.Query.at "Person" "phone", s "123") ]
      ()
  in
  (* two selections + one product connecting the components + output *)
  Alcotest.(check int) "operator count" 3 (Urm.Query.operator_count q2);
  Alcotest.(check int) "schedulable ops" 4 (List.length (Urm.Query.operators q2))

let test_query_products_from_joins () =
  let q =
    Urm.Query.make ~name:"j" ~target
      ~aliases:[ ("P1", "Person"); ("P2", "Person") ]
      ~joins:[ (Urm.Query.at "P1" "pname", Urm.Query.at "P2" "pname") ]
      ()
  in
  (* the join connects both aliases: no bare product needed *)
  let products =
    List.filter
      (function Urm.Query.Op_product _ -> true | _ -> false)
      (Urm.Query.operators q)
  in
  Alcotest.(check int) "no products" 0 (List.length products)

(* ------------------------------------------------------------------ *)
(* Reformulate *)

let test_reformulate_paper_example () =
  let q = q_paper () in
  let m0 = List.hd (fig3_mappings ()) in
  let sq = Urm.Reformulate.source_query target q m0 in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  (match sq.Urm.Reformulate.body with
  | Urm.Reformulate.Expr e ->
    let str = Algebra.to_string e in
    Alcotest.(check bool) "selects oaddr" true (contains str "oaddr=aaa");
    Alcotest.(check bool) "projects ophone" true (contains str "ophone")
  | _ -> Alcotest.fail "expected Expr");
  Alcotest.(check (list string)) "outputs" [ "Person.phone" ]
    (Urm.Reformulate.output_labels sq)

let test_reformulate_unsatisfiable () =
  (* selection on an attribute the mapping does not cover *)
  let q =
    Urm.Query.make ~name:"x" ~target
      ~aliases:[ ("Person", "Person") ]
      ~selections:[ (Urm.Query.at "Person" "gender", s "f") ]
      ()
  in
  let m0 = List.hd (fig3_mappings ()) in
  let sq = Urm.Reformulate.source_query target q m0 in
  Alcotest.(check bool) "unsat" true (sq.Urm.Reformulate.body = Urm.Reformulate.Unsatisfiable)

let test_reformulate_key_groups () =
  let q = q_paper () in
  let keys =
    List.map
      (fun m -> Urm.Reformulate.key (Urm.Reformulate.source_query target q m))
      (fig3_mappings ())
  in
  (* m0/m1 share a source query; m2/m4 share; m3 distinct: 3 distinct keys *)
  Alcotest.(check int) "distinct keys" 3 (List.length (List.sort_uniq compare keys))

let test_reformulate_factor () =
  (* COUNT over Person × Order where Order is unreferenced: factor is the
     cardinality product of Order's cover. *)
  let q =
    Urm.Query.make ~name:"c" ~target
      ~aliases:[ ("Person", "Person"); ("Order", "Order") ]
      ~selections:[ (Urm.Query.at "Person" "addr", s "aaa") ]
      ~aggregate:Urm.Query.Count ()
  in
  let m0 = List.hd (fig3_mappings ()) in
  let sq = Urm.Reformulate.source_query target q m0 in
  (* Order's mapped attrs under m0: price ← C_Order.amount → cover C_Order (3 rows) *)
  Alcotest.(check int) "factor" 3 (Urm.Reformulate.factor (catalog ()) sq)

(* ------------------------------------------------------------------ *)
(* Answer *)

let test_answer_accumulate () =
  let a = Urm.Answer.create [ "x" ] in
  Urm.Answer.add a [| s "v" |] 0.3;
  Urm.Answer.add a [| s "v" |] 0.2;
  Urm.Answer.add a [| s "w" |] 0.1;
  Urm.Answer.add_null a 0.4;
  Alcotest.(check (float 1e-9)) "dup sums" 0.5 (Urm.Answer.prob_of a [| s "v" |]);
  Alcotest.(check (float 1e-9)) "null" 0.4 (Urm.Answer.null_prob a);
  Alcotest.(check (float 1e-9)) "total" 1.0 (Urm.Answer.total_prob a);
  Alcotest.(check int) "size" 2 (Urm.Answer.size a);
  match Urm.Answer.top_k a 1 with
  | [ (t, p) ] ->
    Alcotest.(check bool) "top is v" true (Value.equal t.(0) (s "v"));
    Alcotest.(check (float 1e-9)) "top prob" 0.5 p
  | _ -> Alcotest.fail "top_k shape"

let test_answer_equal () =
  let a = Urm.Answer.create [ "x" ] and b = Urm.Answer.create [ "x" ] in
  Urm.Answer.add a [| i 1 |] 0.5;
  Urm.Answer.add b [| i 1 |] 0.5;
  Alcotest.(check bool) "equal" true (Urm.Answer.equal a b);
  Urm.Answer.add b [| i 2 |] 0.1;
  Alcotest.(check bool) "not equal" false (Urm.Answer.equal a b)

(* Regression: equality must match buckets one-to-one.  Two near-identical
   float keys of [a] used to both claim the same bucket of [b], so [a]
   compared equal to a [b] it plainly differs from — and only in one
   direction (the check was asymmetric). *)
let test_answer_equal_one_to_one () =
  let near = 1.0 +. 1e-12 in
  let mk rows =
    let t = Urm.Answer.create [ "x" ] in
    List.iter (fun (v, p) -> Urm.Answer.add t [| f v |] p) rows;
    t
  in
  let a = mk [ (1.0, 0.3); (near, 0.3) ] in
  let b = mk [ (1.0, 0.3); (5.0, 0.3) ] in
  Alcotest.(check bool) "a vs b" false (Urm.Answer.equal a b);
  Alcotest.(check bool) "b vs a" false (Urm.Answer.equal b a);
  (* Sanity: near-identical keys still match their own copy. *)
  let a' = mk [ (1.0, 0.3); (near, 0.3) ] in
  Alcotest.(check bool) "a vs a'" true (Urm.Answer.equal a a');
  Alcotest.(check bool) "a' vs a" true (Urm.Answer.equal a' a)

let test_answer_arity_mismatch () =
  let a = Urm.Answer.create [ "x"; "y" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Answer.add: arity mismatch")
    (fun () -> Urm.Answer.add a [| i 1 |] 0.5)

(* ------------------------------------------------------------------ *)
(* Partition tree *)

let test_ptree_paper_q1 () =
  (* π_pname σ_addr='abc': partitions {m0,m1}, {m2,m3}, {m4} (paper §IV). *)
  let q =
    Urm.Query.make ~name:"q1" ~target
      ~aliases:[ ("Person", "Person") ]
      ~selections:[ (Urm.Query.at "Person" "addr", s "abc") ]
      ~projection:[ Urm.Query.at "Person" "pname" ]
      ()
  in
  let parts = Urm.Ptree.partition target q (fig3_mappings ()) in
  Alcotest.(check int) "3 partitions" 3 (List.length parts);
  Alcotest.(check (list int)) "sizes" [ 2; 2; 1 ]
    (List.map List.length parts);
  let reps = Urm.Ptree.represent parts in
  Alcotest.(check (list (float 1e-9))) "probabilities" [ 0.5; 0.4; 0.1 ]
    (List.map (fun m -> m.Urm.Mapping.prob) reps)

let test_ptree_matches_naive () =
  let q = q_paper () in
  let ms = fig3_mappings () in
  let by_tree = Urm.Ptree.partition target q ms in
  let by_naive = Urm.Ptree.partition_naive target q ms in
  let ids groups = List.map (List.map (fun m -> m.Urm.Mapping.id)) groups in
  Alcotest.(check (list (list int))) "same partitions"
    (List.sort compare (ids by_naive))
    (List.sort compare (ids by_tree))

let test_ptree_covers_all () =
  let q = q_paper () in
  let ms = fig3_mappings () in
  let parts = Urm.Ptree.partition target q ms in
  Alcotest.(check int) "every mapping in one partition" (List.length ms)
    (List.length (List.concat parts))

(* ------------------------------------------------------------------ *)
(* Algorithms: the paper's worked answer + cross-algorithm consistency *)

let check_answer_tuples expected answer =
  List.iter
    (fun (v, p) ->
      Alcotest.(check (float 1e-9)) (Value.to_string v) p
        (Urm.Answer.prob_of answer [| v |]))
    expected

let test_paper_worked_answer () =
  let ctx = ctx () in
  let report = Urm.Basic.run ctx (q_paper ()) (fig3_mappings ()) in
  check_answer_tuples
    [ (s "123", 0.5); (s "456", 0.8); (s "789", 0.2) ]
    report.Urm.Report.answer

let all_algorithms =
  [
    Urm.Algorithms.Basic;
    Urm.Algorithms.Ebasic;
    Urm.Algorithms.Emqo;
    Urm.Algorithms.Qsharing;
    Urm.Algorithms.Osharing Urm.Eunit.Random;
    Urm.Algorithms.Osharing Urm.Eunit.Snf;
    Urm.Algorithms.Osharing Urm.Eunit.Sef;
  ]

let queries_for_consistency () =
  let at = Urm.Query.at in
  [
    q_paper ();
    (* join: people and their orders *)
    Urm.Query.make ~name:"join" ~target
      ~aliases:[ ("Person", "Person"); ("Order", "Order") ]
      ~selections:[ (at "Person" "addr", s "hk") ]
      ~joins:[ (at "Person" "gender", at "Order" "price") ]
      ();
    (* COUNT with an unreferenced alias *)
    Urm.Query.make ~name:"count" ~target
      ~aliases:[ ("Person", "Person"); ("Order", "Order") ]
      ~selections:[ (at "Person" "phone", s "456") ]
      ~aggregate:Urm.Query.Count ();
    (* SUM *)
    Urm.Query.make ~name:"sum" ~target
      ~aliases:[ ("Person", "Person"); ("Order", "Order") ]
      ~selections:[ (at "Person" "addr", s "aaa") ]
      ~aggregate:(Urm.Query.Sum (at "Order" "price"))
      ();
    (* self-join *)
    Urm.Query.make ~name:"self" ~target
      ~aliases:[ ("P1", "Person"); ("P2", "Person") ]
      ~selections:[ (at "P1" "addr", s "aaa") ]
      ~joins:[ (at "P1" "phone", at "P2" "phone") ]
      ();
    (* pure projection, no selections *)
    Urm.Query.make ~name:"proj" ~target
      ~aliases:[ ("Person", "Person") ]
      ~projection:[ at "Person" "pname"; at "Person" "nation" ]
      ();
    (* grouped COUNT: people per address *)
    Urm.Query.make ~name:"group-count" ~target
      ~aliases:[ ("Person", "Person") ]
      ~aggregate:Urm.Query.Count
      ~group_by:[ at "Person" "addr" ]
      ();
    (* grouped SUM with a selection *)
    Urm.Query.make ~name:"group-sum" ~target
      ~aliases:[ ("Person", "Person"); ("Order", "Order") ]
      ~selections:[ (at "Person" "addr", s "hk") ]
      ~aggregate:(Urm.Query.Sum (at "Order" "price"))
      ~group_by:[ at "Person" "pname" ]
      ();
  ]

let test_all_algorithms_agree () =
  let ctx = ctx () in
  let ms = fig3_mappings () in
  List.iter
    (fun q ->
      let baseline = (Urm.Algorithms.run Urm.Algorithms.Basic ctx q ms).Urm.Report.answer in
      List.iter
        (fun alg ->
          let r = (Urm.Algorithms.run alg ctx q ms).Urm.Report.answer in
          if not (Urm.Answer.equal ~eps:1e-9 baseline r) then
            Alcotest.failf "%s disagrees with basic on %s:@.basic: %s@.other: %s"
              (Urm.Algorithms.name alg) q.Urm.Query.name
              (Format.asprintf "%a" Urm.Answer.pp baseline)
              (Format.asprintf "%a" Urm.Answer.pp r))
        all_algorithms)
    (queries_for_consistency ())

let test_group_by_answers () =
  (* Grouped COUNT by addr under m0 (addr←oaddr): aaa→2, bbb→1.
     Under m2/m3/m4 (addr←haddr): hk→2, aaa→1.  m1 groups like m0. *)
  let ctx = ctx () in
  let q =
    Urm.Query.make ~name:"g" ~target
      ~aliases:[ ("Person", "Person") ]
      ~aggregate:Urm.Query.Count
      ~group_by:[ Urm.Query.at "Person" "addr" ]
      ()
  in
  let a = (Urm.Basic.run ctx q (fig3_mappings ())).Urm.Report.answer in
  Alcotest.(check (list string)) "header" [ "Person.addr"; "count" ] (Urm.Answer.output a);
  Alcotest.(check (float 1e-9)) "aaa→2 under oaddr mappings" 0.5
    (Urm.Answer.prob_of a [| s "aaa"; i 2 |]);
  Alcotest.(check (float 1e-9)) "bbb→1" 0.5 (Urm.Answer.prob_of a [| s "bbb"; i 1 |]);
  Alcotest.(check (float 1e-9)) "hk→2 under haddr mappings" 0.5
    (Urm.Answer.prob_of a [| s "hk"; i 2 |]);
  Alcotest.(check (float 1e-9)) "aaa→1" 0.5 (Urm.Answer.prob_of a [| s "aaa"; i 1 |])

let test_group_by_validation () =
  Alcotest.check_raises "group_by without aggregate"
    (Invalid_argument "Query.make: group_by requires an aggregate") (fun () ->
      ignore
        (Urm.Query.make ~name:"bad" ~target
           ~aliases:[ ("Person", "Person") ]
           ~group_by:[ Urm.Query.at "Person" "addr" ]
           ()))

let test_total_probability_invariant () =
  let ctx = ctx () in
  let ms = fig3_mappings () in
  List.iter
    (fun q ->
      let a = (Urm.Algorithms.run Urm.Algorithms.Basic ctx q ms).Urm.Report.answer in
      (* each mapping contributes ≥ its mass to non-aggregate answers only
         through tuples or θ; for aggregates exactly one tuple per mapping *)
      match (q.Urm.Query.aggregate, q.Urm.Query.group_by) with
      | Some _, [] ->
        (* exactly one aggregate value per mapping *)
        Alcotest.(check (float 1e-9)) (q.Urm.Query.name ^ " total") 1.
          (Urm.Answer.total_prob a)
      | _ ->
        (* each mapping contributes ≥ one tuple or θ *)
        Alcotest.(check bool) (q.Urm.Query.name ^ " θ+max ≥ 1") true
          (Urm.Answer.total_prob a >= 1. -. 1e-9))
    (queries_for_consistency ())

(* ------------------------------------------------------------------ *)
(* o-sharing details *)

let test_osharing_stats () =
  let ctx = ctx () in
  let report, stats =
    Urm.Osharing.run_with_stats ~strategy:Urm.Eunit.Sef ctx (q_paper ()) (fig3_mappings ())
  in
  Alcotest.(check bool) "some e-units" true (stats.Urm.Osharing.eunits >= 1);
  Alcotest.(check int) "3 representatives" 3 stats.Urm.Osharing.representatives;
  Alcotest.(check bool) "fewer ops than basic" true
    (report.Urm.Report.source_operators
    <= (Urm.Basic.run ctx (q_paper ()) (fig3_mappings ())).Urm.Report.source_operators)

let test_osharing_memo_ablation_consistent () =
  let ctx = ctx () in
  List.iter
    (fun q ->
      let with_memo =
        (Urm.Osharing.run ~use_memo:true ctx q (fig3_mappings ())).Urm.Report.answer
      in
      let without =
        (Urm.Osharing.run ~use_memo:false ctx q (fig3_mappings ())).Urm.Report.answer
      in
      Alcotest.(check bool) (q.Urm.Query.name ^ " same answer") true
        (Urm.Answer.equal with_memo without))
    (queries_for_consistency ())

let test_strategy_entropy_example () =
  (* Fig. 7: SEF prefers the operator with the 70% partition. *)
  let e_o1 = Urm_util.Stats.entropy [ 0.4; 0.3; 0.3 ] in
  let e_o2 = Urm_util.Stats.entropy [ 0.1; 0.7; 0.1; 0.1 ] in
  Alcotest.(check bool) "E(o2) < E(o1)" true (e_o2 < e_o1);
  Alcotest.(check (float 0.02)) "E(o1) ≈ 1.57" 1.571 e_o1;
  Alcotest.(check (float 0.02)) "E(o2) ≈ 1.36" 1.357 e_o2

(* ------------------------------------------------------------------ *)
(* Top-k *)

let test_topk_paper_query () =
  let ctx = ctx () in
  let ms = fig3_mappings () in
  let q = q_paper () in
  let full = (Urm.Algorithms.run Urm.Algorithms.Basic ctx q ms).Urm.Report.answer in
  List.iter
    (fun k ->
      let r = Urm.Topk.run ~k ctx q ms in
      let got = Urm.Answer.to_list r.Urm.Topk.report.Urm.Report.answer in
      Alcotest.(check int)
        (Printf.sprintf "k=%d count" k)
        (min k (Urm.Answer.size full))
        (List.length got);
      (* every returned tuple is among the true top-k *)
      let truth = Urm.Answer.top_k full k in
      let kth = match List.rev truth with [] -> 0. | (_, p) :: _ -> p in
      List.iter
        (fun (t, _) ->
          Alcotest.(check bool) "sound" true
            (Urm.Answer.prob_of full t >= kth -. 1e-9))
        got)
    [ 1; 2; 3; 5 ]

let test_topk_lower_bounds_exact_when_finished () =
  let ctx = ctx () in
  let ms = fig3_mappings () in
  let q = q_paper () in
  let r = Urm.Topk.run ~k:10 ctx q ms in
  (* with k larger than the answer set the traversal completes and lower
     bounds equal exact probabilities *)
  let full = (Urm.Algorithms.run Urm.Algorithms.Basic ctx q ms).Urm.Report.answer in
  List.iter
    (fun (t, lb) ->
      Alcotest.(check (float 1e-9)) "exact" (Urm.Answer.prob_of full t) lb)
    (Urm.Answer.to_list r.Urm.Topk.report.Urm.Report.answer)

(* The paper's Table II / §VII worked example, translated to our fixture:
   four u-trace leaves with masses 0.5 (θ), 0.2 ({ta}), 0.2 ({ta,tb,tc})
   and 0.1 (θ); the top-1 answer is ta with lower bound 0.4 and the
   traversal can stop before the last branch. *)
let test_topk_table2_scenario () =
  let cat = Catalog.create () in
  Catalog.add cat "Customer"
    (Relation.create
       ~cols:[ "cid"; "cname"; "ophone"; "hphone"; "mobile"; "oaddr"; "haddr"; "nid" ]
       [
         [| i 1; s "ta"; s "123"; s "123"; s "999"; s "x"; s "hk"; i 1 |];
         [| i 2; s "tb"; s "000"; s "123"; s "998"; s "x"; s "hk"; i 1 |];
         [| i 3; s "tc"; s "001"; s "123"; s "997"; s "x"; s "hk"; i 1 |];
       ]);
  let ctx = Urm.Ctx.make ~catalog:cat ~source ~target () in
  let ms =
    [
      (* mass 0.5: phone→ophone, addr→oaddr — empty (θ) *)
      mk 0 0.3
        [ ("Person.phone", "Customer.ophone"); ("Person.addr", "Customer.oaddr");
          ("Person.pname", "Customer.cname") ];
      mk 1 0.2
        [ ("Person.phone", "Customer.ophone"); ("Person.addr", "Customer.oaddr");
          ("Person.pname", "Customer.cname"); ("Person.gender", "Customer.nid") ];
      (* mass 0.2: returns {ta} *)
      mk 2 0.2
        [ ("Person.phone", "Customer.ophone"); ("Person.addr", "Customer.haddr");
          ("Person.pname", "Customer.cname") ];
      (* mass 0.2: returns {ta, tb, tc} *)
      mk 3 0.2
        [ ("Person.phone", "Customer.hphone"); ("Person.addr", "Customer.haddr");
          ("Person.pname", "Customer.cname") ];
      (* mass 0.1: returns nothing *)
      mk 4 0.1
        [ ("Person.phone", "Customer.mobile"); ("Person.addr", "Customer.haddr");
          ("Person.pname", "Customer.cname") ];
    ]
  in
  let q =
    Urm.Query.make ~name:"q2ish" ~target
      ~aliases:[ ("Person", "Person") ]
      ~selections:
        [ (Urm.Query.at "Person" "phone", s "123"); (Urm.Query.at "Person" "addr", s "hk") ]
      ~projection:[ Urm.Query.at "Person" "pname" ]
      ()
  in
  (* exact probabilities: ta 0.4, tb 0.2, tc 0.2, θ 0.6 *)
  let full = (Urm.Basic.run ctx q ms).Urm.Report.answer in
  Alcotest.(check (float 1e-9)) "ta" 0.4 (Urm.Answer.prob_of full [| s "ta" |]);
  Alcotest.(check (float 1e-9)) "tb" 0.2 (Urm.Answer.prob_of full [| s "tb" |]);
  Alcotest.(check (float 1e-9)) "θ" 0.6 (Urm.Answer.null_prob full);
  (* top-1 returns ta without visiting everything *)
  let r = Urm.Topk.run ~k:1 ctx q ms in
  (match Urm.Answer.to_list r.Urm.Topk.report.Urm.Report.answer with
  | [ (t, lb) ] ->
    Alcotest.(check bool) "top-1 is ta" true (Value.equal t.(0) (s "ta"));
    Alcotest.(check bool) "lb ≥ 0.4 - ε" true (lb >= 0.4 -. 1e-9)
  | _ -> Alcotest.fail "top-1 shape");
  Alcotest.(check bool) "stopped early" true r.Urm.Topk.stopped_early

let test_topk_invalid_k () =
  let ctx = ctx () in
  Alcotest.check_raises "k=0" (Invalid_argument "Topk.run: k must be positive")
    (fun () -> ignore (Urm.Topk.run ~k:0 ctx (q_paper ()) (fig3_mappings ())))

(* ------------------------------------------------------------------ *)
(* Overlap / Mapgen *)

let test_overlap_set () =
  Alcotest.(check (float 1e-9)) "singleton" 1. (Urm.Overlap.o_ratio [ List.hd (fig3_mappings ()) ]);
  let r = Urm.Overlap.o_ratio (fig3_mappings ()) in
  Alcotest.(check bool) "in (0,1)" true (r > 0. && r < 1.)

let test_overlap_frequencies () =
  match Urm.Overlap.correspondence_frequencies (fig3_mappings ()) with
  | (pair, f) :: _ ->
    (* (pname ← cname) appears in 4 of 5 mappings — the paper's observation *)
    Alcotest.(check bool) "top pair" true
      (pair = ("Person.pname", "Customer.cname")
      || pair = ("Person.nation", "Nation.name"));
    Alcotest.(check (float 1e-9)) "0.8" 0.8 f
  | [] -> Alcotest.fail "no frequencies"

let test_mapgen_from_candidates () =
  let cand src dst score = { Urm_matcher.Match.src; dst; score } in
  let cands =
    [
      cand "Customer.ophone" "Person.phone" 0.85;
      cand "Customer.hphone" "Person.phone" 0.83;
      cand "Customer.oaddr" "Person.addr" 0.75;
      cand "Customer.haddr" "Person.addr" 0.75;
      cand "Customer.cname" "Person.pname" 0.81;
    ]
  in
  let ms = Urm.Mapgen.from_candidates ~h:5 cands in
  Alcotest.(check int) "5 mappings" 5 (List.length ms);
  Alcotest.(check (float 1e-9)) "normalised" 1. (Urm.Mapping.total_prob ms);
  (* best mapping has all three attributes matched *)
  Alcotest.(check int) "best size" 3 (Urm.Mapping.size (List.hd ms));
  (* best-first *)
  let scores = List.map (fun m -> m.Urm.Mapping.score) ms in
  Alcotest.(check bool) "descending" true
    (List.sort (fun a b -> Float.compare b a) scores = scores)

let qcheck_answers_agree =
  (* random selections over the fixture, all algorithms agree with basic *)
  let gen =
    QCheck.Gen.(
      let sel =
        oneofl
          [
            (Urm.Query.at "Person" "addr", s "aaa");
            (Urm.Query.at "Person" "addr", s "hk");
            (Urm.Query.at "Person" "phone", s "456");
            (Urm.Query.at "Person" "pname", s "Alice");
            (Urm.Query.at "Person" "nation", s "HK");
          ]
      in
      list_size (1 -- 3) sel)
  in
  QCheck.Test.make ~name:"random selection queries agree across algorithms" ~count:40
    (QCheck.make gen) (fun sels ->
      let q =
        Urm.Query.make ~name:"rand" ~target
          ~aliases:[ ("Person", "Person") ]
          ~selections:(List.sort_uniq compare sels)
          ()
      in
      let ctx = ctx () in
      let ms = fig3_mappings () in
      let baseline = (Urm.Algorithms.run Urm.Algorithms.Basic ctx q ms).Urm.Report.answer in
      List.for_all
        (fun alg ->
          Urm.Answer.equal ~eps:1e-9 baseline
            (Urm.Algorithms.run alg ctx q ms).Urm.Report.answer)
        all_algorithms)

(* The bounded top-k selection must agree with the full ranking: random
   answers over mixed Int/Float/Str/Null keys, probabilities drawn from a
   few values so ties are common, every k from 0 past the size. *)
let qcheck_top_k_prefix =
  let gen =
    QCheck.Gen.(
      let value =
        oneof
          [
            return Value.Null;
            map (fun n -> Value.Int n) (0 -- 3);
            map (fun n -> Value.Float (float_of_int n /. 2.)) (0 -- 3);
            map (fun c -> Value.Str (String.make 1 c)) (oneofl [ 'a'; 'b' ]);
          ]
      in
      pair
        (list_size (0 -- 40)
           (pair (pair value value) (oneofl [ 0.125; 0.25; 0.5; 0.1 ])))
        (0 -- 45))
  in
  QCheck.Test.make ~name:"top_k is the first k of to_list" ~count:300
    (QCheck.make gen) (fun (adds, k) ->
      let a = Urm.Answer.create [ "x"; "y" ] in
      List.iter (fun ((x, y), p) -> Urm.Answer.add a [| x; y |] p) adds;
      let first_k = List.filteri (fun i _ -> i < k) (Urm.Answer.to_list a) in
      Urm.Answer.top_k a k = first_k
      && Urm.Answer.kth_prob a k
         = (match List.rev first_k with
           | (_, p) :: _ when List.length first_k = k -> p
           | _ -> 0.))

let suite =
  [
    Alcotest.test_case "mapping 1:1 checked" `Quick test_mapping_one_to_one;
    Alcotest.test_case "mapping lookup" `Quick test_mapping_lookup;
    Alcotest.test_case "mapping o-ratio" `Quick test_mapping_o_ratio;
    Alcotest.test_case "mapping normalize" `Quick test_mapping_normalize;
    Alcotest.test_case "query validation" `Quick test_query_validation;
    Alcotest.test_case "query referenced/output" `Quick test_query_referenced_and_output;
    Alcotest.test_case "query operators" `Quick test_query_operators;
    Alcotest.test_case "products from joins" `Quick test_query_products_from_joins;
    Alcotest.test_case "reformulate paper example" `Quick test_reformulate_paper_example;
    Alcotest.test_case "reformulate unsatisfiable" `Quick test_reformulate_unsatisfiable;
    Alcotest.test_case "reformulate key groups" `Quick test_reformulate_key_groups;
    Alcotest.test_case "reformulate factor" `Quick test_reformulate_factor;
    Alcotest.test_case "answer accumulate" `Quick test_answer_accumulate;
    Alcotest.test_case "answer equal" `Quick test_answer_equal;
    Alcotest.test_case "answer equal matches buckets one-to-one" `Quick
      test_answer_equal_one_to_one;
    Alcotest.test_case "answer arity" `Quick test_answer_arity_mismatch;
    Alcotest.test_case "ptree paper q1" `Quick test_ptree_paper_q1;
    Alcotest.test_case "ptree = naive" `Quick test_ptree_matches_naive;
    Alcotest.test_case "ptree covers all" `Quick test_ptree_covers_all;
    Alcotest.test_case "paper worked answer" `Quick test_paper_worked_answer;
    Alcotest.test_case "all algorithms agree" `Quick test_all_algorithms_agree;
    Alcotest.test_case "group-by answers" `Quick test_group_by_answers;
    Alcotest.test_case "group-by validation" `Quick test_group_by_validation;
    Alcotest.test_case "probability invariants" `Quick test_total_probability_invariant;
    Alcotest.test_case "o-sharing stats" `Quick test_osharing_stats;
    Alcotest.test_case "memo ablation consistent" `Quick test_osharing_memo_ablation_consistent;
    Alcotest.test_case "SEF entropy example" `Quick test_strategy_entropy_example;
    Alcotest.test_case "top-k paper query" `Quick test_topk_paper_query;
    Alcotest.test_case "top-k exact when finished" `Quick test_topk_lower_bounds_exact_when_finished;
    Alcotest.test_case "top-k Table II scenario" `Quick test_topk_table2_scenario;
    Alcotest.test_case "top-k invalid k" `Quick test_topk_invalid_k;
    Alcotest.test_case "overlap set" `Quick test_overlap_set;
    Alcotest.test_case "overlap frequencies" `Quick test_overlap_frequencies;
    Alcotest.test_case "mapgen from candidates" `Quick test_mapgen_from_candidates;
    QCheck_alcotest.to_alcotest qcheck_answers_agree;
    QCheck_alcotest.to_alcotest qcheck_top_k_prefix;
  ]
