(* Deeper evaluator tests: rewrites, aggregates, dynamic factorisation. *)
open Urm_relalg

let s v = Value.Str v
let i v = Value.Int v
let f v = Value.Float v

let catalog () =
  let cat = Catalog.create () in
  Catalog.add cat "R"
    (Relation.create ~cols:[ "a"; "b"; "x" ]
       [
         [| i 1; s "u"; f 1.5 |]; [| i 2; s "v"; f 2.5 |]; [| i 3; s "u"; f 3.5 |];
         [| i 4; s "w"; f 0.5 |];
       ]);
  Catalog.add cat "S" (Relation.create ~cols:[ "c"; "d" ] [ [| i 2; s "p" |]; [| i 3; s "q" |] ]);
  Catalog.add cat "T" (Relation.create ~cols:[ "e" ] [ [| i 9 |]; [| i 8 |] ]);
  Catalog.add cat "Empty" (Relation.empty ~cols:[ "z" ]);
  cat

let eval ?ctrs ?optimize e = Eval.eval ?ctrs ?optimize (catalog ()) e

let test_cmp_operators () =
  let check cmp expected =
    let r = eval (Algebra.Select (Pred.Cmp (cmp, "a", i 2), Algebra.Base "R")) in
    Alcotest.(check int) "rows" expected (Relation.cardinality r)
  in
  check Pred.Eq 1;
  check Pred.Ne 3;
  check Pred.Lt 1;
  check Pred.Le 2;
  check Pred.Gt 2;
  check Pred.Ge 3

let test_or_not () =
  let p = Pred.Or (Pred.eq "b" (s "u"), Pred.eq "b" (s "w")) in
  Alcotest.(check int) "or" 3
    (Relation.cardinality (eval (Algebra.Select (p, Algebra.Base "R"))));
  Alcotest.(check int) "not-or" 1
    (Relation.cardinality (eval (Algebra.Select (Pred.Not p, Algebra.Base "R"))))

let test_join_product_associativity () =
  (* Join of (T × R) with S on R.a = S.c: the optimizer must keep T out of
     the join and the result must match the unoptimised evaluation. *)
  let e =
    Algebra.Join
      ( Pred.eq_cols "a" "c",
        Algebra.Product (Algebra.Base "T", Algebra.Base "R"),
        Algebra.Base "S" )
  in
  let opt = Eval.optimize (catalog ()) e in
  (match opt with
  | Algebra.Product (Algebra.Base "T", Algebra.Join _) -> ()
  | other -> Alcotest.failf "expected T × (R ⋈ S), got %s" (Algebra.to_string other));
  Alcotest.(check bool) "same result" true
    (Relation.equal_contents (eval e) (eval ~optimize:false e))

let test_distinct_project_factorisation () =
  (* δπ over a product factorises and never materialises the cross product;
     result must equal the naive evaluation. *)
  let e =
    Algebra.Distinct
      (Algebra.Project ([ "b"; "d" ], Algebra.Product (Algebra.Base "R", Algebra.Base "S")))
  in
  let fact = eval e in
  let naive = eval ~optimize:false e in
  Alcotest.(check bool) "factorised = naive" true (Relation.equal_contents fact naive);
  Alcotest.(check int) "3 b-values × 2 d-values" 6 (Relation.cardinality fact)

let test_distinct_project_empty_factor () =
  let e =
    Algebra.Distinct
      (Algebra.Project ([ "b" ], Algebra.Product (Algebra.Base "R", Algebra.Base "Empty")))
  in
  Alcotest.(check int) "empty side kills result" 0 (Relation.cardinality (eval e))

let test_nonempty () =
  let cat = catalog () in
  Alcotest.(check bool) "base" true (Eval.nonempty cat (Algebra.Base "R"));
  Alcotest.(check bool) "empty base" false (Eval.nonempty cat (Algebra.Base "Empty"));
  Alcotest.(check bool) "product with empty side" false
    (Eval.nonempty cat (Algebra.Product (Algebra.Base "R", Algebra.Base "Empty")));
  Alcotest.(check bool) "select" true
    (Eval.nonempty cat (Algebra.Select (Pred.eq "b" (s "u"), Algebra.Base "R")));
  Alcotest.(check bool) "select empty" false
    (Eval.nonempty cat (Algebra.Select (Pred.eq "b" (s "zzz"), Algebra.Base "R")))

let test_catalog_index_invalidation () =
  let cat = catalog () in
  let before = Catalog.lookup cat "R" "b" (s "u") in
  Alcotest.(check int) "two u rows" 2 (List.length before);
  Catalog.add cat "R" (Relation.create ~cols:[ "a"; "b"; "x" ] [ [| i 7; s "u"; f 1. |] ]);
  let after = Catalog.lookup cat "R" "b" (s "u") in
  Alcotest.(check int) "index rebuilt" 1 (List.length after)

let test_algebra_inventory () =
  let e =
    Algebra.Aggregate
      ( Algebra.Count,
        Algebra.Select (Pred.eq "b" (s "u"), Algebra.Product (Algebra.Base "R", Algebra.Base "S")) )
  in
  Alcotest.(check int) "size counts operators" 3 (Algebra.size e);
  Alcotest.(check int) "subexpressions" 5 (List.length (Algebra.subexpressions e));
  Alcotest.(check int) "children of product" 2
    (List.length (Algebra.children (Algebra.Product (Algebra.Base "R", Algebra.Base "S"))))

let test_counters_rows () =
  let ctrs = Eval.fresh_counters () in
  ignore (eval ~ctrs (Algebra.Select (Pred.eq "b" (s "u"), Algebra.Base "R")));
  Alcotest.(check int) "one op" 1 ctrs.Eval.operators;
  Alcotest.(check int) "two rows out" 2 ctrs.Eval.rows_produced

(* Property: the whole optimiser (pushdown, join formation, associativity,
   distinct factorisation) preserves semantics on random 2-relation trees. *)
let qcheck_optimizer_sound =
  let open QCheck.Gen in
  let pred =
    oneof
      [
        map (fun v -> Pred.eq "a" (i v)) (1 -- 4);
        oneofl [ Pred.eq "b" (s "u"); Pred.eq_cols "a" "c"; Pred.eq "d" (s "p") ];
      ]
  in
  let base = oneofl [ Algebra.Base "R"; Algebra.Base "S" ] in
  let gen =
    base >>= fun b1 ->
    base >>= fun b2 ->
    list_size (0 -- 3) pred >>= fun preds ->
    oneofl [ `Plain; `DistinctProject; `Count ] >|= fun shape ->
    let prod =
      if Algebra.equal b1 b2 then
        Algebra.Product (Algebra.Rename ("L", b1), Algebra.Rename ("R2", b2))
      else Algebra.Product (b1, b2)
    in
    let renamed = not (Algebra.equal b1 b2) in
    let preds = if renamed then preds else [] in
    let body = match preds with [] -> prod | _ -> Algebra.Select (Pred.conj preds, prod) in
    match shape with
    | `Plain -> body
    | `Count -> Algebra.Aggregate (Algebra.Count, body)
    | `DistinctProject ->
      let cols =
        match (b1, b2) with
        | Algebra.Base "R", Algebra.Base "S" | Algebra.Base "S", Algebra.Base "R" -> [ "b"; "d" ]
        | _ -> []
      in
      if cols = [] then body else Algebra.Distinct (Algebra.Project (cols, body))
  in
  QCheck.Test.make ~name:"optimizer preserves semantics" ~count:150
    (QCheck.make gen ~print:Algebra.to_string)
    (fun e ->
      let cat = catalog () in
      Relation.equal_contents (Eval.eval cat e) (Eval.eval ~optimize:false cat e))

let test_group_by_eval () =
  let e = Algebra.GroupBy ([ "b" ], Algebra.Count, Algebra.Base "R") in
  let r = eval e in
  Alcotest.(check (list string)) "header" [ "b"; "count" ] (Relation.cols r);
  Alcotest.(check int) "three groups" 3 (Relation.cardinality r);
  let count_of key =
    let row =
      Relation.fold
        (fun acc row -> if Value.equal row.(0) (s key) then Some row else acc)
        None r
    in
    match row with Some row -> row.(1) | None -> Value.Null
  in
  Alcotest.(check bool) "u count 2" true (Value.equal (count_of "u") (i 2));
  Alcotest.(check bool) "v count 1" true (Value.equal (count_of "v") (i 1))

let test_group_by_sum_and_multiple_keys () =
  let e = Algebra.GroupBy ([ "b"; "a" ], Algebra.Sum "x", Algebra.Base "R") in
  let r = eval e in
  (* all (b, a) pairs are distinct → 4 groups *)
  Alcotest.(check int) "four groups" 4 (Relation.cardinality r);
  let total =
    Relation.fold
      (fun acc row ->
        match row.(2) with Value.Float f -> acc +. f | _ -> acc)
      0. r
  in
  Alcotest.(check (float 1e-9)) "sums partition the total" 8.0 total

let test_group_by_empty_input () =
  let e = Algebra.GroupBy ([ "z" ], Algebra.Count, Algebra.Base "Empty") in
  Alcotest.(check int) "no groups" 0 (Relation.cardinality (eval e))

let test_group_by_no_keys () =
  (* zero keys: one group over all rows iff input non-empty *)
  let e = Algebra.GroupBy ([], Algebra.Count, Algebra.Base "R") in
  let r = eval e in
  Alcotest.(check int) "one group" 1 (Relation.cardinality r);
  Alcotest.(check bool) "count 4" true (Value.equal (Relation.value r 0 "count") (i 4));
  let empty = Algebra.GroupBy ([], Algebra.Count, Algebra.Base "Empty") in
  Alcotest.(check int) "empty input: no group" 0 (Relation.cardinality (eval empty))

let qcheck_group_by_counts_partition =
  (* the counts of the groups always sum to the input cardinality *)
  let gen =
    QCheck.Gen.(
      list_size (0 -- 20)
        (pair (oneofl [ "p"; "q"; "r" ]) (0 -- 3)))
  in
  QCheck.Test.make ~name:"group counts partition cardinality" ~count:150
    (QCheck.make gen)
    (fun rows ->
      let rel =
        Relation.create ~cols:[ "k"; "v" ]
          (List.map (fun (k, v) -> [| s k; i v |]) rows)
      in
      let cat = Catalog.create () in
      Catalog.add cat "T0" rel;
      let grouped = Eval.eval cat (Algebra.GroupBy ([ "k" ], Algebra.Count, Algebra.Base "T0")) in
      let total =
        Relation.fold
          (fun acc row -> match row.(1) with Value.Int c -> acc + c | _ -> acc)
          0 grouped
      in
      total = List.length rows)

let test_pred_rename () =
  let p = Pred.conj [ Pred.eq "a" (i 1); Pred.eq_cols "a" "b" ] in
  let renamed = Pred.rename p (fun c -> "X#" ^ c) in
  Alcotest.(check (list string)) "renamed columns" [ "X#a"; "X#b" ] (Pred.columns renamed)

let test_stats_est () =
  let cat = catalog () in
  let st = Stats_est.build cat in
  let cs = Stats_est.column st "R" "b" in
  Alcotest.(check int) "rows" 4 cs.Stats_est.rows;
  Alcotest.(check int) "distinct" 3 cs.Stats_est.distinct;
  Alcotest.(check int) "no nulls" 0 cs.Stats_est.null_count;
  (match cs.Stats_est.mcv with
  | (v, c) :: _ ->
    Alcotest.(check bool) "mcv is u" true (Value.equal v (s "u"));
    Alcotest.(check int) "u count" 2 c
  | [] -> Alcotest.fail "no mcv");
  Alcotest.(check (float 1e-9)) "eq sel of mcv" 0.5 (Stats_est.eq_selectivity st "R" "b" (s "u"));
  Alcotest.(check bool) "join selectivity bounded" true
    (let js = Stats_est.join_selectivity st "R" "a" "S" "c" in
     js > 0. && js <= 1.);
  Alcotest.(check int) "cardinality" 4 (Stats_est.cardinality st "R")

let test_stats_nulls_and_unknown () =
  let cat = Catalog.create () in
  Catalog.add cat "N"
    (Relation.create ~cols:[ "x" ] [ [| Value.Null |]; [| i 1 |]; [| Value.Null |] ]);
  let st = Stats_est.build cat in
  let cs = Stats_est.column st "N" "x" in
  Alcotest.(check int) "nulls" 2 cs.Stats_est.null_count;
  Alcotest.(check int) "distinct" 1 cs.Stats_est.distinct;
  Alcotest.(check (float 1e-9)) "unknown column default" 0.1
    (Stats_est.eq_selectivity st "N" "zzz" (i 1))

let test_planner_with_stats_consistent () =
  let cat = catalog () in
  let stats = Stats_est.build cat in
  let queries =
    [
      Algebra.Select (Pred.eq "b" (s "u"), Algebra.Base "R");
      Algebra.Project ([ "a" ], Algebra.Select (Pred.eq "b" (s "u"), Algebra.Base "R"));
      Algebra.Join (Pred.eq_cols "a" "c", Algebra.Base "R", Algebra.Base "S");
    ]
  in
  let with_stats = Urm_mqo.Planner.plan ~stats cat queries in
  let without = Urm_mqo.Planner.plan cat queries in
  List.iter2
    (fun (_, r1) (_, r2) -> Alcotest.(check bool) "same results" true (Relation.equal_contents r1 r2))
    (Urm_mqo.Planner.execute cat with_stats)
    (Urm_mqo.Planner.execute cat without)

let suite =
  [
    Alcotest.test_case "comparison operators" `Quick test_cmp_operators;
    Alcotest.test_case "group-by eval" `Quick test_group_by_eval;
    Alcotest.test_case "group-by multiple keys + sum" `Quick test_group_by_sum_and_multiple_keys;
    Alcotest.test_case "group-by empty input" `Quick test_group_by_empty_input;
    Alcotest.test_case "group-by no keys" `Quick test_group_by_no_keys;
    Alcotest.test_case "pred rename" `Quick test_pred_rename;
    QCheck_alcotest.to_alcotest qcheck_group_by_counts_partition;
    Alcotest.test_case "stats estimation" `Quick test_stats_est;
    Alcotest.test_case "stats nulls/unknown" `Quick test_stats_nulls_and_unknown;
    Alcotest.test_case "planner with stats" `Quick test_planner_with_stats_consistent;
    Alcotest.test_case "or/not" `Quick test_or_not;
    Alcotest.test_case "join-product associativity" `Quick test_join_product_associativity;
    Alcotest.test_case "distinct-project factorisation" `Quick test_distinct_project_factorisation;
    Alcotest.test_case "distinct-project empty factor" `Quick test_distinct_project_empty_factor;
    Alcotest.test_case "nonempty" `Quick test_nonempty;
    Alcotest.test_case "index invalidation" `Quick test_catalog_index_invalidation;
    Alcotest.test_case "algebra inventory" `Quick test_algebra_inventory;
    Alcotest.test_case "row counters" `Quick test_counters_rows;
    QCheck_alcotest.to_alcotest qcheck_optimizer_sound;
  ]
