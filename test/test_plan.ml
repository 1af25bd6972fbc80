(* The plan-engine differential suite.

   qcheck generators produce random small catalogs (typed columns with
   nulls, duplicates and skew, so join orders and build sides actually
   vary) and random algebra expressions over them (selections, equi- and
   theta-joins, products, projections, distinct, aggregates, group-by).
   The property: [Compile.compile |> Plan.execute] returns exactly the
   same header and row multiset as the tree-walking interpreter, both
   with and without the logical optimiser, and [Plan.nonempty] agrees
   with [Eval.nonempty]; dedicated cardinalities exercise the 1024-row
   batch boundaries.  SUM keys are checked bit for bit against an exact
   integer reference under shuffled rows.

   Deterministic unit tests cover short-circuiting emptiness probes, the
   plan cache's hit/miss/evict accounting, cost-based build-side
   selection, aggregate null/string semantics, and the [Urm.Ctx]
   cross-mapping plan reuse. *)

open Urm_relalg

let i n = Value.Int n
let s v = Value.Str v
let f x = Value.Float x

(* ------------------------------------------------------------------ *)
(* Random catalogs: R(a:int, b:str, c:int), S(c:int, d:float?), T(e:int).
   Join keys draw from a small domain so matches are common. *)

let value_int_gen = QCheck.Gen.(map i (0 -- 4))

let value_str_gen =
  QCheck.Gen.(oneofl [ s "x"; s "y"; s "z"; Value.Null ])

let value_float_gen =
  QCheck.Gen.(
    oneof [ map f (float_range (-2.) 2.); return Value.Null; map i (0 -- 3) ])

let rows_gen ~max_rows cell_gens =
  QCheck.Gen.(
    list_size (0 -- max_rows)
      (map Array.of_list (flatten_l cell_gens)))

let catalog_gen =
  QCheck.Gen.(
    let* r_rows =
      rows_gen ~max_rows:30 [ value_int_gen; value_str_gen; value_int_gen ]
    in
    let* s_rows = rows_gen ~max_rows:12 [ value_int_gen; value_float_gen ] in
    let* t_rows = rows_gen ~max_rows:6 [ value_int_gen ] in
    return
      (let cat = Catalog.create () in
       Catalog.add cat "R" (Relation.create ~cols:[ "a"; "b"; "c" ] r_rows);
       Catalog.add cat "S" (Relation.create ~cols:[ "c"; "d" ] s_rows);
       Catalog.add cat "T" (Relation.create ~cols:[ "e" ] t_rows);
       cat))

(* ------------------------------------------------------------------ *)
(* Random expressions.  Bases are renamed (the algorithms' shape), so
   every column is alias-qualified and the cluster lowering sees the
   general case. *)

let r_ = Algebra.Rename ("r", Algebra.Base "R")
let s_ = Algebra.Rename ("s", Algebra.Base "S")
let t_ = Algebra.Rename ("t", Algebra.Base "T")

let cmp_gen = QCheck.Gen.oneofl [ Pred.Eq; Pred.Ne; Pred.Lt; Pred.Ge ]

let pred_gen =
  QCheck.Gen.(
    oneof
      [
        (let* c = cmp_gen and* v = value_int_gen in
         return (Pred.Cmp (c, "r#a", v)));
        (let* v = oneofl [ s "x"; s "y" ] in
         return (Pred.Cmp (Pred.Eq, "r#b", v)));
        (let* c = cmp_gen and* v = value_int_gen in
         return (Pred.Cmp (c, "s#c", v)));
        return (Pred.CmpCols (Pred.Eq, "r#c", "s#c"));
        return (Pred.CmpCols (Pred.Ne, "r#a", "s#c"));
      ])

(* A joined body over r and s (sometimes t), with 0–2 extra conjuncts. *)
let body_gen =
  QCheck.Gen.(
    let* extra = list_size (0 -- 2) pred_gen in
    let* shape = 0 -- 3 in
    let conj base = List.fold_left (fun e p -> Algebra.Select (p, e)) base extra in
    match shape with
    | 0 -> return (conj (Algebra.Join (Pred.CmpCols (Pred.Eq, "r#c", "s#c"), r_, s_)))
    | 1 -> return (conj (Algebra.Product (r_, s_)))
    | 2 -> return (conj (Algebra.Product (Algebra.Product (r_, s_), t_)))
    | _ -> return (conj r_))

let expr_gen =
  QCheck.Gen.(
    let* body = body_gen in
    let has_s =
      match body with
      | Algebra.Rename ("r", _) -> false
      | _ -> true
    in
    let proj_cols =
      if has_s then [ "r#b"; "s#c" ] else [ "r#b"; "r#a" ]
    in
    (* s#d mixes floats, ints and nulls: SUM keys must still be exact. *)
    let aggs =
      [ Algebra.Count; Algebra.Sum "r#a" ] @ if has_s then [ Algebra.Sum "s#d" ] else []
    in
    let* shape = 0 -- 6 in
    match shape with
    | 0 -> return body
    | 1 -> return (Algebra.Project (proj_cols, body))
    | 2 -> return (Algebra.Distinct (Algebra.Project (proj_cols, body)))
    | 3 ->
      let* agg = oneofl aggs in
      return (Algebra.Aggregate (agg, body))
    | 4 ->
      let* agg = oneofl aggs in
      return (Algebra.GroupBy ([ "r#b" ], agg, body))
    | 5 ->
      (* A selection the optimiser cannot push below the grouping: the
         filter reads the group-by's row-built batch. *)
      let* c = cmp_gen and* v = QCheck.Gen.(map i (1 -- 3)) in
      return
        (Algebra.Select
           ( Pred.Cmp (c, Algebra.output_col Algebra.Count, v),
             Algebra.GroupBy ([ "r#b" ], Algebra.Count, body) ))
    | _ -> return (Algebra.Distinct body))

(* ------------------------------------------------------------------ *)
(* The differential property. *)

let rows_of r = Relation.fold (fun acc row -> row :: acc) [] r

let compare_rows a b =
  let n = compare (Array.length a) (Array.length b) in
  if n <> 0 then n
  else
    let rec go k =
      if k = Array.length a then 0
      else
        let c = Value.compare a.(k) b.(k) in
        if c <> 0 then c else go (k + 1)
    in
    go 0

(* Exact value identity: floats compare by bits. *)
let same_value x y =
  match (x, y) with
  | Value.Float a, Value.Float b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | _ -> Value.equal x y

let same_multiset ra rb =
  let sa = List.sort compare_rows (rows_of ra) in
  let sb = List.sort compare_rows (rows_of rb) in
  List.length sa = List.length sb
  && List.for_all2
       (fun a b -> Array.length a = Array.length b && Array.for_all2 same_value a b)
       sa sb

let outcome run =
  match run () with
  | r -> Ok r
  | exception Not_found -> Error "Not_found"
  | exception Invalid_argument m -> Error ("Invalid_argument " ^ m)

let agree oa ob =
  match (oa, ob) with
  | Ok ra, Ok rb ->
    List.equal String.equal (Relation.cols ra) (Relation.cols rb)
    && same_multiset ra rb
  | Error a, Error b -> String.equal a b
  | _ -> false

(* The plan's emptiness probe against the interpreter's, wherever the
   interpreter evaluates [e] without raising. *)
let nonempty_agrees cat e plan =
  match outcome (fun () -> Eval.nonempty cat e) with
  | Ok expect -> Bool.equal expect (Plan.nonempty cat plan)
  | Error _ -> true

let qcheck_compiled_vs_interpreted =
  QCheck.Test.make
    ~name:"compiled plans agree with the interpreter on random catalogs × exprs"
    ~count:200
    (QCheck.make QCheck.Gen.(pair catalog_gen expr_gen))
    (fun (cat, e) ->
      let interp = outcome (fun () -> Eval.eval cat e) in
      let unopt = outcome (fun () -> Eval.eval ~optimize:false cat e) in
      let plan =
        outcome (fun () ->
            let env = Compile.create_env ~metrics:(Urm_obs.Metrics.create ()) cat in
            Compile.compile env e)
      in
      let executed = Result.bind plan (fun p -> outcome (fun () -> Plan.execute cat p)) in
      if not (agree interp unopt) then
        QCheck.Test.fail_reportf "optimised interpreter disagrees on %s"
          (Algebra.to_string e)
      else if not (agree interp executed) then
        QCheck.Test.fail_reportf "plan engine disagrees on %s"
          (Algebra.to_string e)
      else if
        not (Result.fold plan ~ok:(nonempty_agrees cat e) ~error:(fun _ -> true))
      then
        QCheck.Test.fail_reportf "Plan.nonempty disagrees with Eval.nonempty on %s"
          (Algebra.to_string e)
      else true)

(* Indexing off exercises the scan path of compiled index probes. *)
let qcheck_compiled_no_index =
  QCheck.Test.make
    ~name:"compiled plans agree with the interpreter when indexing is disabled"
    ~count:60
    (QCheck.make QCheck.Gen.(pair catalog_gen expr_gen))
    (fun (cat, e) ->
      Catalog.set_indexing cat false;
      let interp = outcome (fun () -> Eval.eval cat e) in
      let compiled =
        outcome (fun () ->
            let env = Compile.create_env ~metrics:(Urm_obs.Metrics.create ()) cat in
            Plan.execute cat (Compile.compile env e))
      in
      agree interp compiled
      || QCheck.Test.fail_reportf "compiled (no index) disagrees on %s"
           (Algebra.to_string e))

(* Batch-boundary cardinalities: the batch stream and the emptiness probe
   must agree exactly where batches split — empty inputs, single rows, and
   one row either side of the 1024-row batch size. *)
let qcheck_batch_boundaries =
  QCheck.Test.make
    ~name:"batch streams agree at batch-size boundaries (0/1/1023/1024/1025)"
    ~count:30
    (QCheck.make
       QCheck.Gen.(pair (oneofl [ 0; 1; 1023; 1024; 1025 ]) (0 -- 2)))
    (fun (n, shape) ->
      let cat = Catalog.create () in
      Catalog.add cat "B"
        (Relation.create ~cols:[ "a"; "b" ]
           (List.init n (fun j ->
                [|
                  i (j mod 5);
                  (if j mod 7 = 0 then Value.Null else f (float_of_int (j mod 3)));
                |])));
      let b_ = Algebra.Rename ("b", Algebra.Base "B") in
      let e =
        match shape with
        | 0 -> Algebra.Select (Pred.Cmp (Pred.Lt, "b#a", i 3), b_)
        | 1 ->
          Algebra.Distinct
            (Algebra.Project
               ([ "b#b" ], Algebra.Select (Pred.Cmp (Pred.Ne, "b#a", i 0), b_)))
        | _ ->
          Algebra.Aggregate
            (Algebra.Count, Algebra.Select (Pred.Cmp (Pred.Ge, "b#b", f 1.), b_))
      in
      let interp = outcome (fun () -> Eval.eval cat e) in
      let env = Compile.create_env ~metrics:(Urm_obs.Metrics.create ()) cat in
      let plan = Compile.compile env e in
      let batched = outcome (fun () -> Plan.execute cat plan) in
      (agree interp batched && nonempty_agrees cat e plan)
      || QCheck.Test.fail_reportf "boundary n=%d disagrees on %s" n
           (Algebra.to_string e))

(* ------------------------------------------------------------------ *)
(* Plan-cache accounting. *)

let fixed_catalog () =
  let cat = Catalog.create () in
  Catalog.add cat "R"
    (Relation.create ~cols:[ "a"; "b"; "c" ]
       (List.init 100 (fun k -> [| i (k mod 5); s "x"; i (k mod 3) |])));
  Catalog.add cat "S"
    (Relation.create ~cols:[ "c"; "d" ] [ [| i 0; f 1. |]; [| i 1; f 2. |] ]);
  Catalog.add cat "T" (Relation.create ~cols:[ "e" ] [ [| i 0 |] ]);
  cat

let test_cache_accounting () =
  let cat = fixed_catalog () in
  let env = Compile.create_env ~metrics:(Urm_obs.Metrics.create ()) cat in
  let cache =
    Plan_cache.create ~metrics:(Urm_obs.Metrics.create ()) ~capacity:2 ()
  in
  let exprs =
    [
      ("k1", Algebra.Base "R");
      ("k2", Algebra.Base "S");
      ("k3", Algebra.Base "T");
    ]
  in
  let get k = Plan_cache.find_or_add cache k (fun () ->
      Compile.compile env (List.assoc k exprs))
  in
  ignore (get "k1");                            (* miss *)
  ignore (get "k1");                            (* hit *)
  ignore (get "k2");                            (* miss *)
  ignore (get "k3");                            (* miss; evicts k1's LRU peer *)
  let hit, miss, evict = Plan_cache.stats cache in
  Alcotest.(check (triple int int int)) "stats" (1, 3, 1) (hit, miss, evict);
  Alcotest.(check int) "length" 2 (Plan_cache.length cache);
  Alcotest.(check int) "capacity" 2 (Plan_cache.capacity cache);
  (* k2 was touched more recently than k1, so k1 was the eviction victim:
     re-fetching k2 hits, re-fetching k1 misses. *)
  ignore (get "k2");
  ignore (get "k1");
  let hit, miss, _ = Plan_cache.stats cache in
  Alcotest.(check (pair int int)) "lru order" (2, 4) (hit, miss)

let test_cache_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Plan_cache.create: capacity must be positive")
    (fun () ->
      ignore (Plan_cache.create ~metrics:(Urm_obs.Metrics.create ()) ~capacity:0 ()))

(* ------------------------------------------------------------------ *)
(* Cost-based join order and build side: with R at 100 rows and S at 2,
   the greedy order starts from S and the hash join builds on it. *)

let test_build_side () =
  let cat = fixed_catalog () in
  let env = Compile.create_env ~metrics:(Urm_obs.Metrics.create ()) cat in
  let e = Algebra.Join (Pred.CmpCols (Pred.Eq, "r#c", "s#c"), r_, s_) in
  let plan = Compile.compile env e in
  let d = Plan.describe plan in
  let idx sub =
    let rec find k =
      if k + String.length sub > String.length d then -1
      else if String.sub d k (String.length sub) = sub then k
      else find (k + 1)
    in
    find 0
  in
  Alcotest.(check bool) "builds on the smaller side" true
    (idx "build=left" >= 0);
  Alcotest.(check bool) "smaller relation drives" true
    (idx "scan(S)" >= 0 && idx "scan(R)" >= 0 && idx "scan(S)" < idx "scan(R)");
  (* The reordered plan still returns the interpreter's header and rows. *)
  let interp = Eval.eval cat e in
  let compiled = Plan.execute cat plan in
  Alcotest.(check (list string)) "header" (Relation.cols interp)
    (Relation.cols compiled);
  Alcotest.(check bool) "rows" true (same_multiset interp compiled)

(* ------------------------------------------------------------------ *)
(* Aggregate semantics: COUNT counts nulls, SUM absorbs them, a string
   operand raises, and a float SUM is the correctly rounded exact sum
   whatever the row order.  Both engines, same answers. *)

let agg_catalog () =
  let cat = Catalog.create () in
  Catalog.add cat "A"
    (Relation.create ~cols:[ "v"; "w" ]
       [
         [| i 1; s "b" |]; [| Value.Null; s "a" |]; [| i 2; Value.Null |];
         [| i 1; s "a" |];
       ]);
  (* 0.1 + 0.2 + 0.3 is 0.6000000000000001 summed left to right and 0.6
     right to left; the exact sum rounds to 0.6. *)
  Catalog.add cat "F" (Relation.create ~cols:[ "x" ] [ [| f 0.1 |]; [| f 0.2 |]; [| f 0.3 |] ]);
  Catalog.add cat "G" (Relation.create ~cols:[ "x" ] [ [| f 0.3 |]; [| f 0.2 |]; [| f 0.1 |] ]);
  Catalog.add cat "M" (Relation.create ~cols:[ "x" ] [ [| i 1 |]; [| Value.Null |]; [| f 0.5 |] ]);
  Catalog.add cat "E" (Relation.create ~cols:[ "x" ] []);
  cat

let both_engines cat e =
  let env = Compile.create_env ~metrics:(Urm_obs.Metrics.create ()) cat in
  let interp = Eval.eval cat e in
  let compiled = Plan.execute cat (Compile.compile env e) in
  Alcotest.(check bool)
    ("engines agree on " ^ Algebra.to_string e)
    true
    (List.equal String.equal (Relation.cols interp) (Relation.cols compiled)
    && same_multiset interp compiled);
  interp

let test_aggregate_semantics () =
  let cat = agg_catalog () in
  let got e = Relation.fold (fun _ row -> Some row.(0)) None (both_engines cat e) in
  let check name e expect =
    match got e with
    | Some v -> Alcotest.(check bool) name true (same_value v expect)
    | None -> Alcotest.fail (name ^ ": no row")
  in
  let sum col rel = Algebra.Aggregate (Algebra.Sum col, Algebra.Base rel) in
  check "count counts nulls" (Algebra.Aggregate (Algebra.Count, Algebra.Base "A")) (i 4);
  check "sum absorbs nulls" (sum "v" "A") (i 4);
  check "float sum is exact" (sum "x" "F") (f 0.6);
  check "float sum ignores row order" (sum "x" "G") (f 0.6);
  check "an int operand joins a float sum" (sum "x" "M") (f 1.5);
  (* Sum over a string column raises identically on both engines. *)
  let e = sum "w" "A" in
  let env = Compile.create_env ~metrics:(Urm_obs.Metrics.create ()) cat in
  let expect = Invalid_argument "Value.add: string operand" in
  Alcotest.check_raises "interpreted sum over strings" expect (fun () ->
      ignore (Eval.eval cat e));
  Alcotest.check_raises "plan sum over strings" expect (fun () ->
      ignore (Plan.execute cat (Compile.compile env e)));
  (* A grouped SUM over an unknown column fails on both engines, even
     over an empty input where no group forms. *)
  let e = Algebra.GroupBy ([ "x" ], Algebra.Sum "y", Algebra.Base "E") in
  Alcotest.check_raises "interpreted grouped sum, unknown column" Not_found (fun () ->
      ignore (Eval.eval cat e));
  Alcotest.check_raises "plan grouped sum, unknown column" Not_found (fun () ->
      ignore (Plan.execute cat (Compile.compile env e)))

(* SUM keys against an independent reference.  Operands are dyadic, m·2^e
   with m ∈ [-256, 1023] and e ∈ [-40, -36] ∪ [-5, -1], so their sum
   scaled by 2⁴⁰ is an exact integer; rounding it once gives the correctly
   rounded sum.  Spanning ~60 bits, a left-to-right float fold of the same
   operands depends on their order.  Each case runs plain and grouped
   (behind a filter narrowing the selection vectors), on both engines,
   over the rows and a shuffle of them, across several 1024-row
   batches. *)

let scale = 40

(* An operand: Null, a small Int, or a dyadic m·2^e.  Group 3 draws no
   dyadic when ints are on, so its SUM stays an Int; with ints off the
   column is all floats and nulls (the unboxed float vectors). *)
let operand_gen ~ints g =
  QCheck.Gen.(
    let* kind = 0 -- 9 and* m = -256 -- 1023 and* e = -5 -- -1 and* tiny = bool in
    return
      (if kind = 0 then `Null
       else if ints && (kind = 1 || g = 3) then `Int (m / 64)
       else `Dyadic (m, if tiny then e - 35 else e)))

let sum_rows_gen ~ints n =
  QCheck.Gen.(
    list_repeat n
      (let* g = 0 -- 3 in
       let* op = operand_gen ~ints g in
       return (g, op)))

let value_of = function
  | `Null -> Value.Null
  | `Int n -> i n
  | `Dyadic (m, e) -> f (Float.ldexp (float_of_int m) e)

(* The exact sum, computed in integers scaled by 2^scale and rounded once
   (float_of_int rounds to nearest). *)
let reference ops =
  let scaled, ints, floats =
    List.fold_left
      (fun (scaled, ints, floats) -> function
        | `Null -> (scaled, ints, floats)
        | `Int n -> (scaled + (n lsl scale), Some (Option.value ~default:0 ints + n), floats)
        | `Dyadic (m, e) -> (scaled + (m lsl (e + scale)), ints, true))
      (0, None, false) ops
  in
  if floats then f (Float.ldexp (float_of_int scaled) (-scale))
  else match ints with Some n -> i n | None -> Value.Null

let qcheck_sum_exact =
  QCheck.Test.make ~name:"SUM keys are exact on both engines in any row order"
    ~count:20
    (QCheck.make
       ~print:(fun (rows, _, drop) ->
         Printf.sprintf "%d rows, group %d filtered out" (List.length rows) drop)
       QCheck.Gen.(
         let* n = 1025 -- 3000 and* ints = bool and* drop = 0 -- 4 in
         let* rows = sum_rows_gen ~ints n in
         let* shuffled = shuffle_l rows in
         return (rows, shuffled, drop)))
    (fun (rows, shuffled, drop) ->
      let kept = List.filter (fun (g, _) -> g <> drop) rows in
      let plain = Relation.create ~cols:[ "sum(b#v)" ] [ [| reference (List.map snd kept) |] ] in
      let grouped =
        Relation.create ~cols:[ "b#g"; "sum(b#v)" ]
          (List.filter_map
             (fun g ->
               match List.filter (fun (g', _) -> g' = g) kept with
               | [] -> None
               | group -> Some [| i g; reference (List.map snd group) |])
             [ 0; 1; 2; 3 ])
      in
      let body = Algebra.Select (Pred.Cmp (Pred.Ne, "b#g", i drop), Algebra.Rename ("b", Algebra.Base "B")) in
      List.for_all
        (fun order ->
          let cat = Catalog.create () in
          Catalog.add cat "B"
            (Relation.create ~cols:[ "g"; "v" ]
               (List.map (fun (g, op) -> [| i g; value_of op |]) order));
          let env = Compile.create_env ~metrics:(Urm_obs.Metrics.create ()) cat in
          List.for_all
            (fun (e, expect) ->
              (same_multiset expect (Eval.eval cat e)
              || QCheck.Test.fail_reportf "interpreted %s" (Algebra.to_string e))
              && (same_multiset expect (Plan.execute cat (Compile.compile env e))
                 || QCheck.Test.fail_reportf "vectorized %s" (Algebra.to_string e)))
            [
              (Algebra.Aggregate (Algebra.Sum "b#v", body), plain);
              (Algebra.GroupBy ([ "b#g" ], Algebra.Sum "b#v", body), grouped);
            ])
        [ rows; shuffled ])

(* ------------------------------------------------------------------ *)
(* Emptiness probes must leave metrics untouched: [Plan.nonempty] once
   streamed through the accounting wrappers, inflating operator/row/access
   counters with rows no query produced. *)

let test_nonempty_counters () =
  let cat = fixed_catalog () in
  let metrics = Urm_obs.Metrics.create () in
  let env = Compile.create_env ~metrics cat in
  (* Ne lowers to a scan-side filter, the path whose access counter the
     check used to bump. *)
  let e = Algebra.Select (Pred.Cmp (Pred.Ne, "r#b", s "nope"), r_) in
  let plan = Compile.compile env e in
  let ctrs = Eval.fresh_counters ~metrics () in
  Alcotest.(check bool) "probe finds rows" true (Plan.nonempty ~ctrs cat plan);
  Alcotest.(check int) "no operators recorded" 0 ctrs.Eval.operators;
  Alcotest.(check int) "no rows recorded" 0 ctrs.Eval.rows_produced;
  Alcotest.(check (option int))
    "no scan accesses recorded" (Some 0)
    (Urm_obs.Metrics.find_counter
       (Urm_obs.Metrics.scope metrics "relalg")
       "select.scan")

(* Emptiness probes short-circuit: over 10⁴ rows whose first row
   qualifies, a filter's probe must not drain its input, and a hash join's
   probe must stop at the first matching probe row instead of waiting for
   a full output batch. *)

let test_nonempty_short_circuits () =
  let n = 10_000 in
  let cat = Catalog.create () in
  Catalog.add cat "N"
    (Relation.create ~cols:[ "a"; "b" ]
       (List.init n (fun j -> [| i (j mod 7); i j |])));
  Catalog.add cat "K" (Relation.create ~cols:[ "k" ] [ [| i 0 |]; [| i 1 |] ]);
  let counting f =
    let calls = ref 0 in
    ( calls,
      fun row ->
        incr calls;
        f row )
  in
  let pred_calls, pred = counting (fun row -> Value.compare row.(0) (i 7) < 0) in
  let filtered = Plan.filter ~pred (Plan.scan ~name:"N" ~cols:[ "a"; "b" ]) in
  let plan = Plan.of_pipe ~header:[ "a"; "b" ] filtered in
  Alcotest.(check bool) "filter probe finds the first row" true
    (Plan.nonempty cat plan);
  Alcotest.(check bool) "filter probe stays within one batch" true
    (!pred_calls <= Column.batch_size);
  pred_calls := 0;
  let residual_calls, residual = counting (fun _ -> true) in
  let join =
    Plan.hash_join ~build_left:true ~lkey:0 ~rkey:0 ~residual:(Some residual)
      (Plan.scan ~name:"K" ~cols:[ "k" ])
      filtered
  in
  let plan = Plan.of_pipe ~header:[ "k"; "a"; "b" ] join in
  Alcotest.(check bool) "hash-join probe finds the first match" true
    (Plan.nonempty cat plan);
  Alcotest.(check int) "hash-join probe stops at the first probe row" 1
    !residual_calls;
  Alcotest.(check bool) "hash-join probe input stays within one batch" true
    (!pred_calls <= Column.batch_size);
  (* The full execution still sees every row. *)
  residual_calls := 0;
  let joined = Plan.execute cat plan in
  let matching = List.length (List.filter (fun j -> j mod 7 < 2) (List.init n Fun.id)) in
  Alcotest.(check int) "execution joins every matching row" matching
    (Relation.cardinality joined);
  Alcotest.(check int) "residual ran once per joined row"
    (Relation.cardinality joined) !residual_calls

(* The hash-join build table is memoised per catalog version, but a plan
   last run on a superseded version (a copy-on-write commit) must not keep
   that version alive: the plan cache outlives it. *)
let test_join_memo_releases_catalog () =
  let plan =
    Plan.of_pipe ~header:[ "k"; "l" ]
      (Plan.hash_join ~build_left:true ~lkey:0 ~rkey:0 ~residual:None
         (Plan.scan ~name:"K" ~cols:[ "k" ])
         (Plan.scan ~name:"L" ~cols:[ "l" ]))
  in
  let weak = Weak.create 1 in
  let run_on_fresh_catalog () =
    let cat = Catalog.create () in
    Catalog.add cat "K" (Relation.create ~cols:[ "k" ] [ [| i 1 |]; [| i 2 |] ]);
    Catalog.add cat "L" (Relation.create ~cols:[ "l" ] [ [| i 2 |] ]);
    Weak.set weak 0 (Some cat);
    Relation.cardinality (Plan.execute cat plan)
  in
  Alcotest.(check int) "joined" 1 (run_on_fresh_catalog ());
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "old catalog collected" false (Weak.check weak 0);
  (* The plan — and its memo — outlive the collection, as in a cache. *)
  Alcotest.(check (list string)) "plan still live" [ "k"; "l" ] (Plan.header plan)

(* ------------------------------------------------------------------ *)
(* Ctx-level plan reuse: the same shape evaluated twice compiles once. *)

let test_ctx_reuse () =
  let ctx = Test_core.ctx () in
  let e =
    Algebra.Select (Pred.Cmp (Pred.Eq, "p#cname", s "Alice"),
                    Algebra.Rename ("p", Algebra.Base "Customer"))
  in
  let a = Urm.Ctx.eval ctx e in
  let b = Urm.Ctx.eval ctx e in
  Alcotest.(check bool) "same answer" true (Relation.equal_contents a b);
  let hit, miss, evict = Urm.Ctx.plan_stats ctx in
  Alcotest.(check (triple int int int)) "one compile, one reuse" (1, 1, 0)
    (hit, miss, evict)

(* Canonicalized cache keys: permuted And-conjuncts are one plan-cache
   entry (the hit-rate regression), while anything that affects the
   header or row order — projection column order, product order — must
   stay a distinct key. *)
let test_canonical_fingerprint_cache () =
  let p1 = Pred.Cmp (Pred.Eq, "p#cname", s "Alice")
  and p2 = Pred.Cmp (Pred.Eq, "p#oaddr", s "aaa") in
  let base = Algebra.Rename ("p", Algebra.Base "Customer") in
  let e12 = Algebra.Select (Pred.And (p1, p2), base)
  and e21 = Algebra.Select (Pred.And (p2, p1), base) in
  Alcotest.(check string) "conjunct order does not change the key"
    (Algebra.canonical_fingerprint e12)
    (Algebra.canonical_fingerprint e21);
  Alcotest.(check bool) "raw fingerprints do differ" true
    (not (String.equal (Algebra.fingerprint e12) (Algebra.fingerprint e21)));
  let pr cols = Algebra.Project (cols, base) in
  Alcotest.(check bool) "projection order stays a distinct key" true
    (not
       (String.equal
          (Algebra.canonical_fingerprint (pr [ "p#cname"; "p#oaddr" ]))
          (Algebra.canonical_fingerprint (pr [ "p#oaddr"; "p#cname" ]))));
  Alcotest.(check bool) "product order stays a distinct key" true
    (not
       (String.equal
          (Algebra.canonical_fingerprint (Algebra.Product (r_, s_)))
          (Algebra.canonical_fingerprint (Algebra.Product (s_, r_)))));
  let ctx = Test_core.ctx () in
  let a = Urm.Ctx.eval ctx e12 in
  let b = Urm.Ctx.eval ctx e21 in
  Alcotest.(check bool) "either spelling returns the same rows" true
    (Relation.equal_contents a b);
  let hit, miss, evict = Urm.Ctx.plan_stats ctx in
  Alcotest.(check (triple int int int)) "one compile serves both spellings"
    (1, 1, 0) (hit, miss, evict)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_compiled_vs_interpreted;
    QCheck_alcotest.to_alcotest qcheck_compiled_no_index;
    QCheck_alcotest.to_alcotest qcheck_batch_boundaries;
    QCheck_alcotest.to_alcotest qcheck_sum_exact;
    Alcotest.test_case "emptiness probes leave counters untouched" `Quick
      test_nonempty_counters;
    Alcotest.test_case "emptiness probes stop at the first qualifying row" `Quick
      test_nonempty_short_circuits;
    Alcotest.test_case "plan cache hit/miss/evict accounting" `Quick
      test_cache_accounting;
    Alcotest.test_case "plan cache rejects non-positive capacity" `Quick
      test_cache_bad_capacity;
    Alcotest.test_case "hash join builds on the estimated-smaller side" `Quick
      test_build_side;
    Alcotest.test_case "aggregate null/string semantics match" `Quick
      test_aggregate_semantics;
    Alcotest.test_case "join memo does not keep an old catalog alive" `Quick
      test_join_memo_releases_catalog;
    Alcotest.test_case "Ctx reuses one plan across evaluations" `Quick
      test_ctx_reuse;
    Alcotest.test_case "canonical fingerprints share one cache entry" `Quick
      test_canonical_fingerprint_cache;
  ]
