open Urm_relalg

let v_int i = Value.Int i
let v_str s = Value.Str s

(* The running example of the paper's Fig. 2: the Customer relation. *)
let customer () =
  Relation.create
    ~cols:[ "cid"; "cname"; "ophone"; "hphone"; "oaddr"; "haddr" ]
    [
      [| v_int 1; v_str "Alice"; v_str "123"; v_str "789"; v_str "aaa"; v_str "hk" |];
      [| v_int 2; v_str "Bob"; v_str "456"; v_str "123"; v_str "bbb"; v_str "hk" |];
      [| v_int 3; v_str "Cindy"; v_str "456"; v_str "789"; v_str "aaa"; v_str "aaa" |];
    ]

let catalog () =
  let cat = Catalog.create () in
  Catalog.add cat "Customer" (customer ());
  cat

let eval ?ctrs e = Eval.eval ?ctrs (catalog ()) e

let test_value_order () =
  Alcotest.(check bool) "null < int" true (Value.compare Value.Null (v_int 0) < 0);
  Alcotest.(check bool) "int < str" true (Value.compare (v_int 99) (v_str "a") < 0);
  Alcotest.(check bool) "null = null" true (Value.equal Value.Null Value.Null);
  Alcotest.(check bool) "str order" true (Value.compare (v_str "a") (v_str "b") < 0)

(* SUM's accumulator: Int operands add as Ints, Null is absorbed, a
   string raises, a non-finite operand adds as a float. *)
let test_value_add () =
  let sum vs =
    let acc = Sum_acc.create () in
    List.iter (Sum_acc.add acc) vs;
    Sum_acc.value acc
  in
  Alcotest.(check bool) "int add" true (Value.equal (sum [ v_int 2; v_int 3 ]) (v_int 5));
  Alcotest.(check bool) "null absorbs" true
    (Value.equal (sum [ Value.Null; v_int 3 ]) (v_int 3));
  Alcotest.(check bool) "no operand is null" true (Value.is_null (sum [ Value.Null ]));
  Alcotest.(check bool) "infinity adds as a float" true
    (Value.equal (sum [ v_int 1; Value.Float infinity; Value.Float 0.5 ]) (Value.Float infinity));
  Alcotest.(check bool) "an overflowing sum is infinite" true
    (Value.equal (sum [ Value.Float 1e308; Value.Float 1e308; v_int 1 ]) (Value.Float infinity));
  Alcotest.(check bool) "a negative overflow is -infinity" true
    (Value.equal (sum [ Value.Float (-1e308); Value.Float (-1e308) ]) (Value.Float neg_infinity));
  (* Sums spanning more than two floats' bits: every order gives the
     correctly rounded exact sum. *)
  let rec perms = function
    | [] -> [ [] ]
    | l -> List.concat_map (fun x -> List.map (List.cons x) (perms (List.filter (( != ) x) l))) l
  in
  let every_order name xs expect =
    List.iter
      (fun p ->
        Alcotest.(check (float 0.)) name expect
          (match sum (List.map (fun f -> Value.Float f) p) with Value.Float f -> f | _ -> nan))
      (perms xs)
  in
  every_order "cancellation keeps the low bits"
    [ 0x1p100; 1.0; 0x1p-100; -0x1p100; -1.0 ] 0x1p-100;
  every_order "a tie is settled by the bits below it" [ 1.0; 0x1p-53; 0x1p-160 ] (1.0 +. 0x1p-52);
  Alcotest.check_raises "string add" (Invalid_argument "Value.add: string operand")
    (fun () -> ignore (sum [ v_str "x"; v_int 1 ]))

let test_schema_lookup () =
  let s =
    Schema.make "S" [ ("r", [ ("a", Schema.TInt); ("b", Schema.TStr) ]) ]
  in
  Alcotest.(check int) "attr count" 2 (Schema.attr_count s);
  Alcotest.(check (list string)) "qualified" [ "r.a"; "r.b" ] (Schema.qualified_attrs s);
  let rel, attr = Schema.split_qualified "r.a" in
  Alcotest.(check string) "rel" "r" rel;
  Alcotest.(check string) "attr" "a" attr;
  Alcotest.(check bool) "type" true (Schema.type_of s "r.a" = Schema.TInt)

let test_relation_basics () =
  let c = customer () in
  Alcotest.(check int) "cardinality" 3 (Relation.cardinality c);
  Alcotest.(check int) "arity" 6 (Relation.arity c);
  Alcotest.(check bool) "value" true
    (Value.equal (Relation.value c 0 "cname") (v_str "Alice"))

let test_relation_project_distinct () =
  let c = customer () in
  let p = Relation.project c [ "haddr" ] in
  Alcotest.(check int) "bag size" 3 (Relation.cardinality p);
  Alcotest.(check int) "distinct size" 2 (Relation.cardinality (Relation.distinct p))

let test_relation_product () =
  let c = customer () in
  let small = Relation.create ~cols:[ "x" ] [ [| v_int 1 |]; [| v_int 2 |] ] in
  let p = Relation.product c small in
  Alcotest.(check int) "product card" 6 (Relation.cardinality p);
  Alcotest.(check int) "product arity" 7 (Relation.arity p)

let test_relation_rename_prefix () =
  let c = Relation.rename_prefix (customer ()) "C1" in
  Alcotest.(check bool) "prefixed col" true (Relation.mem_col c "C1#cname");
  Alcotest.(check bool) "old gone" false (Relation.mem_col c "cname")

let test_relation_duplicate_col_rejected () =
  Alcotest.check_raises "dup col" (Invalid_argument "Relation: duplicate column x")
    (fun () -> ignore (Relation.create ~cols:[ "x"; "x" ] []))

let test_pred_eval () =
  let c = customer () in
  let r = Pred.eval_on c (Pred.eq "ophone" (v_str "456")) in
  Alcotest.(check int) "eq" 2 (Relation.cardinality r);
  let r2 = Pred.eval_on c (Pred.eq_cols "oaddr" "haddr") in
  Alcotest.(check int) "eq_cols: cindy" 1 (Relation.cardinality r2);
  let r3 =
    Pred.eval_on c
      (Pred.conj [ Pred.eq "ophone" (v_str "456"); Pred.eq "haddr" (v_str "hk") ])
  in
  Alcotest.(check int) "conj" 1 (Relation.cardinality r3);
  let r4 = Pred.eval_on c (Pred.Not (Pred.eq "haddr" (v_str "hk"))) in
  Alcotest.(check int) "not" 1 (Relation.cardinality r4)

let test_pred_conjuncts_roundtrip () =
  let atoms = [ Pred.eq "a" (v_int 1); Pred.eq "b" (v_int 2); Pred.eq_cols "a" "b" ] in
  Alcotest.(check int) "3 conjuncts" 3 (List.length (Pred.conjuncts (Pred.conj atoms)));
  Alcotest.(check (list string)) "columns" [ "a"; "b" ]
    (Pred.columns (Pred.conj atoms))

(* q0 of the paper's introduction: π_addr σ_phone='123' Person, reformulated
   through (ophone,phone),(oaddr,addr): π_oaddr σ_ophone='123' Customer = aaa. *)
let test_eval_paper_q0 () =
  let q =
    Algebra.Project
      ([ "oaddr" ], Algebra.Select (Pred.eq "ophone" (v_str "123"), Algebra.Base "Customer"))
  in
  let r = eval q in
  Alcotest.(check int) "one row" 1 (Relation.cardinality r);
  Alcotest.(check bool) "aaa" true (Value.equal (Relation.value r 0 "oaddr") (v_str "aaa"));
  (* The hphone variant yields bbb, the paper's motivating discrepancy. *)
  let q' =
    Algebra.Project
      ([ "oaddr" ], Algebra.Select (Pred.eq "hphone" (v_str "123"), Algebra.Base "Customer"))
  in
  let r' = eval q' in
  Alcotest.(check bool) "bbb" true (Value.equal (Relation.value r' 0 "oaddr") (v_str "bbb"))

let test_eval_aggregates () =
  let count = eval (Algebra.Aggregate (Algebra.Count, Algebra.Base "Customer")) in
  Alcotest.(check bool) "count 3" true (Value.equal (Relation.value count 0 "count") (v_int 3));
  let sum = eval (Algebra.Aggregate (Algebra.Sum "cid", Algebra.Base "Customer")) in
  Alcotest.(check bool) "sum 6" true (Value.equal (Relation.value sum 0 "sum(cid)") (v_int 6));
  let empty =
    eval
      (Algebra.Aggregate
         (Algebra.Sum "cid", Algebra.Select (Pred.eq "cname" (v_str "Zoe"), Algebra.Base "Customer")))
  in
  Alcotest.(check bool) "sum over empty is null" true
    (Value.is_null (Relation.value empty 0 "sum(cid)"))

let test_eval_join_vs_product () =
  let a = Relation.create ~cols:[ "k"; "va" ] [ [| v_int 1; v_str "x" |]; [| v_int 2; v_str "y" |] ] in
  let b = Relation.create ~cols:[ "j"; "vb" ] [ [| v_int 1; v_str "p" |]; [| v_int 1; v_str "q" |] ] in
  let cat = Catalog.create () in
  Catalog.add cat "A" a;
  Catalog.add cat "B" b;
  let join = Algebra.Join (Pred.eq_cols "k" "j", Algebra.Base "A", Algebra.Base "B") in
  let r = Eval.eval cat join in
  Alcotest.(check int) "join rows" 2 (Relation.cardinality r);
  let prod_sel =
    Algebra.Select (Pred.eq_cols "k" "j", Algebra.Product (Algebra.Base "A", Algebra.Base "B"))
  in
  let r2 = Eval.eval cat prod_sel in
  Alcotest.(check bool) "join = σ(product)" true (Relation.equal_contents r r2)

let test_eval_pushdown_shape () =
  let cat = catalog () in
  let other = Relation.create ~cols:[ "x" ] [ [| v_int 1 |]; [| v_int 2 |] ] in
  let expr =
    Algebra.Select
      ( Pred.eq "ophone" (v_str "456"),
        Algebra.Product (Algebra.Base "Customer", Algebra.Mat other) )
  in
  let opt = Eval.optimize cat expr in
  (match opt with
  | Algebra.Product (Algebra.Select _, _) -> ()
  | other -> Alcotest.failf "selection not pushed: %s" (Algebra.to_string other));
  Alcotest.(check bool) "same result" true
    (Relation.equal_contents (Eval.eval cat expr) (Eval.eval cat ~optimize:false expr))

let test_eval_index_matches_scan () =
  let cat = catalog () in
  let q = Algebra.Select (Pred.eq "ophone" (v_str "456"), Algebra.Base "Customer") in
  let with_index = Eval.eval cat q in
  Catalog.set_indexing cat false;
  let without = Eval.eval cat q in
  Alcotest.(check bool) "index = scan" true (Relation.equal_contents with_index without)

let test_eval_counters () =
  let ctrs = Eval.fresh_counters () in
  let q =
    Algebra.Project ([ "cname" ], Algebra.Select (Pred.eq "haddr" (v_str "hk"), Algebra.Base "Customer"))
  in
  ignore (eval ~ctrs q);
  Alcotest.(check int) "two operators" 2 ctrs.Eval.operators

let test_rename_select_through_index () =
  let cat = catalog () in
  let q =
    Algebra.Select
      (Pred.eq "C1#ophone" (v_str "456"), Algebra.Rename ("C1", Algebra.Base "Customer"))
  in
  let r = Eval.eval cat q in
  Alcotest.(check int) "rows" 2 (Relation.cardinality r);
  Alcotest.(check bool) "renamed col" true (Relation.mem_col r "C1#cname")

let test_algebra_fingerprint () =
  let q1 = Algebra.Select (Pred.eq "a" (v_int 1), Algebra.Base "r") in
  let q2 = Algebra.Select (Pred.eq "a" (v_int 1), Algebra.Base "r") in
  let q3 = Algebra.Select (Pred.eq "a" (v_int 2), Algebra.Base "r") in
  Alcotest.(check bool) "equal" true (Algebra.equal q1 q2);
  Alcotest.(check bool) "not equal" false (Algebra.equal q1 q3);
  Alcotest.(check int) "size" 1 (Algebra.size q1)

(* Property: optimisation never changes results. *)
let qcheck_optimize_preserves =
  let gen_pred =
    QCheck.Gen.(
      oneof
        [
          map (fun i -> Pred.eq "cid" (Value.Int i)) (1 -- 3);
          map (fun s -> Pred.eq "haddr" (Value.Str s)) (oneofl [ "hk"; "aaa"; "zz" ]);
          return (Pred.eq_cols "oaddr" "haddr");
        ])
  in
  let gen_expr =
    QCheck.Gen.(
      let base = return (Algebra.Base "Customer") in
      fix (fun self depth ->
          if depth = 0 then base
          else
            oneof
              [
                base;
                map2 (fun p e -> Algebra.Select (p, e)) gen_pred (self (depth - 1));
                map (fun e -> Algebra.Distinct e) (self (depth - 1));
                map (fun e -> Algebra.Project ([ "cid"; "oaddr"; "haddr" ], Algebra.Select (Pred.True, e)))
                  (return (Algebra.Base "Customer"));
              ])
        3)
  in
  QCheck.Test.make ~name:"optimize preserves evaluation" ~count:100
    (QCheck.make gen_expr ~print:Algebra.to_string)
    (fun e ->
      let cat = catalog () in
      Relation.equal_contents (Eval.eval cat e) (Eval.eval ~optimize:false cat e))

let suite =
  [
    Alcotest.test_case "value order" `Quick test_value_order;
    Alcotest.test_case "value add" `Quick test_value_add;
    Alcotest.test_case "schema lookup" `Quick test_schema_lookup;
    Alcotest.test_case "relation basics" `Quick test_relation_basics;
    Alcotest.test_case "project/distinct" `Quick test_relation_project_distinct;
    Alcotest.test_case "product" `Quick test_relation_product;
    Alcotest.test_case "rename prefix" `Quick test_relation_rename_prefix;
    Alcotest.test_case "duplicate col rejected" `Quick test_relation_duplicate_col_rejected;
    Alcotest.test_case "pred eval" `Quick test_pred_eval;
    Alcotest.test_case "pred conjuncts" `Quick test_pred_conjuncts_roundtrip;
    Alcotest.test_case "paper q0" `Quick test_eval_paper_q0;
    Alcotest.test_case "aggregates" `Quick test_eval_aggregates;
    Alcotest.test_case "join = filtered product" `Quick test_eval_join_vs_product;
    Alcotest.test_case "pushdown shape" `Quick test_eval_pushdown_shape;
    Alcotest.test_case "index matches scan" `Quick test_eval_index_matches_scan;
    Alcotest.test_case "operator counters" `Quick test_eval_counters;
    Alcotest.test_case "select through rename+index" `Quick test_rename_select_through_index;
    Alcotest.test_case "fingerprints" `Quick test_algebra_fingerprint;
    QCheck_alcotest.to_alcotest qcheck_optimize_preserves;
  ]
