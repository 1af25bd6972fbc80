(* The incremental-maintenance suite: versioned catalog semantics, answer
   compaction, and the qcheck differential property that delta-apply over
   any mutation sequence equals full re-evaluation (basic, e-basic, e-MQO,
   both engines) at the final epoch. *)

open Urm_relalg
module Mutation = Urm_incr.Mutation
module Vcatalog = Urm_incr.Vcatalog
module State = Urm_incr.State

let s v = Value.Str v
let i v = Value.Int v

let vcat_of ?engine () =
  let catalog = Test_core.catalog () in
  let ctx =
    Urm.Ctx.make ?engine ~catalog ~source:Test_core.source ~target:Test_core.target
      ()
  in
  Vcatalog.create ~ctx ~mappings:(Test_core.fig3_mappings ()) ()

let customer name addr k =
  [| i (1000 + k); s name; s "123"; s "789"; s "555"; s addr; s "hk"; i 1 |]

let fresh_answer alg (snap : Vcatalog.snapshot) q =
  (Urm.Algorithms.run alg snap.Vcatalog.ctx q snap.Vcatalog.mappings)
    .Urm.Report.answer

(* The maintained answer renders a fresh evaluation's bytes. *)
let check_equal msg expected got =
  if not (String.equal (Test_differential.bytes expected) (Test_differential.bytes got))
  then
    Alcotest.failf "%s:@.expected %a@.got %a" msg Urm.Answer.pp expected
      Urm.Answer.pp got

(* ------------------------------------------------------------------ *)
(* Answer compaction *)

let test_compact () =
  let a = Urm.Answer.create [ "x" ] in
  let tu = [| s "t" |] and residue = [| s "residue" |] in
  Urm.Answer.add a tu 0.1;
  Urm.Answer.add a tu 0.2;
  Urm.Answer.add a [| s "keep" |] 0.5;
  (* Retracting every mass given, in another order, sums to exactly 0. *)
  Urm.Answer.add a tu (-0.2);
  Urm.Answer.add a tu (-0.1);
  (* 0.3 − 0.1 − 0.2 is −2⁻⁵⁵ exactly: a genuine mass, not a zero. *)
  Urm.Answer.add a residue 0.3;
  Urm.Answer.add a residue (-0.1);
  Urm.Answer.add a residue (-0.2);
  Urm.Answer.add_null a 0.2;
  Urm.Answer.add_null a (-0.2);
  Urm.Answer.compact a;
  Alcotest.(check int) "zero bucket dropped" 2 (Urm.Answer.size a);
  Alcotest.(check (float 0.)) "θ exactly zero" 0. (Urm.Answer.null_prob a);
  Alcotest.(check (float 0.)) "surviving bucket intact" 0.5
    (Urm.Answer.prob_of a [| s "keep" |]);
  Alcotest.(check (float 0.)) "nonzero residue kept" (-.ldexp 1. (-55))
    (Urm.Answer.prob_of a residue)

(* ------------------------------------------------------------------ *)
(* Mutation JSON round trip *)

let test_mutation_json () =
  let batch =
    [
      Mutation.Insert { rel = "Customer"; row = customer "Zoe" "aaa" 1 };
      Mutation.Delete { rel = "C_Order"; row = [| i 10; i 1; Value.Float 5. |] };
      Mutation.Reweight { mapping = 2; prob = 0.125 };
      Mutation.Prune { mapping = 4 };
      Mutation.Add_mapping
        {
          id = None;
          pairs = [ ("Person.pname", "Customer.cname") ];
          prob = 0.05;
          score = 0.4;
        };
    ]
  in
  let json = Urm_util.Json.to_string (Mutation.batch_to_json batch) in
  match Mutation.batch_of_json (Urm_util.Json.parse_exn json) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok batch' ->
    Alcotest.(check int) "batch length" (List.length batch) (List.length batch');
    Alcotest.(check string) "round trip is identity" json
      (Urm_util.Json.to_string (Mutation.batch_to_json batch'))

(* ------------------------------------------------------------------ *)
(* Versioned-catalog semantics *)

let test_commit_basics () =
  let vcat = vcat_of () in
  let pre = Vcatalog.head vcat in
  let row = customer "Zoe" "aaa" 1 in
  (match Vcatalog.commit vcat [ Mutation.Insert { rel = "Customer"; row } ] with
  | Error msg -> Alcotest.failf "commit failed: %s" msg
  | Ok out ->
    Alcotest.(check int) "epoch bumped" 1 out.Vcatalog.snapshot.Vcatalog.epoch;
    Alcotest.(check (list string)) "touched" [ "Customer" ] out.Vcatalog.touched;
    Alcotest.(check bool) "mappings unchanged" false out.Vcatalog.mappings_changed);
  let post = Vcatalog.head vcat in
  Alcotest.(check int) "pre snapshot untouched" 3
    (Relation.cardinality (Catalog.find pre.Vcatalog.ctx.Urm.Ctx.catalog "Customer"));
  Alcotest.(check int) "post sees the insert" 4
    (Relation.cardinality (Catalog.find post.Vcatalog.ctx.Urm.Ctx.catalog "Customer"));
  (* Untouched relations are shared, not copied. *)
  Alcotest.(check bool) "untouched relation shared" true
    (Catalog.find pre.Vcatalog.ctx.Urm.Ctx.catalog "Nation"
    == Catalog.find post.Vcatalog.ctx.Urm.Ctx.catalog "Nation");
  (* A delete of an absent row rejects the whole batch atomically. *)
  (match
     Vcatalog.commit vcat
       [
         Mutation.Insert { rel = "Customer"; row = customer "Yan" "bbb" 2 };
         Mutation.Delete { rel = "Customer"; row = customer "Nobody" "zzz" 3 };
       ]
   with
  | Ok _ -> Alcotest.fail "expected delete-of-absent-row to fail"
  | Error _ ->
    Alcotest.(check int) "failed batch left no trace" 1 (Vcatalog.epoch vcat));
  (* Integral floats coerce against the stored column type (wire JSON). *)
  (match
     Vcatalog.commit vcat
       [ Mutation.Insert { rel = "C_Order"; row = [| i 13; i 2; i 4 |] } ]
   with
  | Error msg -> Alcotest.failf "coercing commit failed: %s" msg
  | Ok out ->
    let rel = Catalog.find out.Vcatalog.snapshot.Vcatalog.ctx.Urm.Ctx.catalog "C_Order" in
    Alcotest.(check bool) "int coerced to float column" true
      (Value.equal rel.Relation.rows.(3).(2) (Value.Float 4.)));
  match Vcatalog.entries_since vcat 1 with
  | Some [ e ] ->
    Alcotest.(check int) "entry spans 1→2" 2 e.Vcatalog.post.Vcatalog.epoch
  | _ -> Alcotest.fail "entries_since 1 should yield exactly one entry"

let test_snapshot_isolation () =
  let vcat = vcat_of () in
  let q = Test_core.q_paper () in
  let snap0 = Vcatalog.head vcat in
  let a0 = fresh_answer Urm.Algorithms.Basic snap0 q in
  let state = State.build snap0 q in
  check_equal "built state matches fresh eval" a0 (State.answer state);
  (match
     Vcatalog.commit vcat
       [
         Mutation.Insert { rel = "Customer"; row = customer "Zoe" "aaa" 1 };
         Mutation.Reweight { mapping = 0; prob = 0.05 };
       ]
   with
  | Error msg -> Alcotest.failf "commit failed: %s" msg
  | Ok _ -> ());
  (* The reader pinned at epoch 0 still computes the epoch-0 answer while
     (and after) epoch 1 commits. *)
  check_equal "pinned snapshot unchanged" a0 (fresh_answer Urm.Algorithms.Basic snap0 q);
  let head = Vcatalog.head vcat in
  let a1 = fresh_answer Urm.Algorithms.Basic head q in
  (* The commit moves real mass: the census, θ or a tuple shifts by more
     than 1e-9. *)
  let shifted p q = Float.abs (p -. q) > 1e-9 in
  Alcotest.(check bool) "head answer moved" true
    (Urm.Answer.size a0 <> Urm.Answer.size a1
    || shifted (Urm.Answer.null_prob a0) (Urm.Answer.null_prob a1)
    || List.exists
         (fun (t, p) -> shifted p (Urm.Answer.prob_of a1 t))
         (Urm.Answer.to_list a0));
  let state, status = State.catch_up vcat state in
  Alcotest.(check bool) "caught up by patching" true (status = `Patched);
  check_equal "patched state matches fresh eval" a1 (State.answer state)

(* A mapping reweighted to 0 still yields its tuples, so a fresh
   evaluation keeps their buckets at probability 0 (only m3 yields 789 in
   Fig. 3); the maintained answer keeps them too, patched or rebuilt. *)
let test_zero_weight_keeps_buckets () =
  let vcat = vcat_of () in
  let q = Test_core.q_paper () in
  let state = State.build (Vcatalog.head vcat) q in
  let reweight prob =
    match Vcatalog.commit vcat [ Mutation.Reweight { mapping = 3; prob } ] with
    | Error msg -> Alcotest.failf "commit failed: %s" msg
    | Ok _ -> fresh_answer Urm.Algorithms.Basic (Vcatalog.head vcat) q
  in
  let fresh = reweight 0. in
  Alcotest.(check bool) "fresh keeps 789 at probability 0" true
    (List.mem ([| s "789" |], 0.) (Urm.Answer.to_list fresh));
  let state, _ = State.catch_up vcat state in
  check_equal "patched to weight 0" fresh (State.answer state);
  check_equal "built at weight 0" fresh (State.answer (State.build (Vcatalog.head vcat) q));
  let fresh = reweight 0.2 in
  let state, _ = State.catch_up vcat state in
  check_equal "patched back" fresh (State.answer state)

(* ------------------------------------------------------------------ *)
(* Drift regression: 10^4 insert/delete pairs leave the maintained answer
   rendering a fresh evaluation's bytes: retracted buckets sum to exactly
   zero and are compacted away. *)

let test_drift_regression () =
  let vcat = vcat_of () in
  let q = Test_core.q_paper () in
  let state = ref (State.build (Vcatalog.head vcat) q) in
  let rng = Random.State.make [| 7 |] in
  let names = [| "Zoe"; "Yan"; "Ada"; "Lin" |] in
  let addrs = [| "aaa"; "bbb"; "hk" |] in
  let commit_and_apply batch =
    match Vcatalog.commit vcat batch with
    | Error msg -> Alcotest.failf "commit failed: %s" msg
    | Ok _ ->
      let st, _ = State.catch_up vcat !state in
      state := st
  in
  for k = 1 to 10_000 do
    let row =
      customer
        names.(Random.State.int rng (Array.length names))
        addrs.(Random.State.int rng (Array.length addrs))
        k
    in
    commit_and_apply [ Mutation.Insert { rel = "Customer"; row } ];
    commit_and_apply [ Mutation.Delete { rel = "Customer"; row } ];
    if k mod 2_500 = 0 then
      check_equal
        (Printf.sprintf "after %d insert/delete pairs" k)
        (fresh_answer Urm.Algorithms.Basic (Vcatalog.head vcat) q)
        (State.answer !state)
  done;
  Alcotest.(check int) "instance back to its original size" 3
    (Relation.cardinality
       (Catalog.find (Vcatalog.head vcat).Vcatalog.ctx.Urm.Ctx.catalog "Customer"))

(* ------------------------------------------------------------------ *)
(* qcheck differential: random mutation sequences × random queries ×
   engines × exact algorithms. *)

(* Abstract mutation specs realised against the catalog head at commit
   time, so deletes always name live rows and mapping ops live ids. *)
type spec =
  | SIns of int * int * int * int  (* relation, template row, name, addr *)
  | SDel of int * int
  | SRew of int * float
  | SPrune of int
  | SAdd of (string * string) list * float

let rels = [| "Customer"; "C_Order"; "Nation" |]

let spec_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun (r, t) (n, a) -> SIns (r, t, n, a)) (pair (0 -- 2) (0 -- 9)) (pair (0 -- 3) (0 -- 2)));
        (3, map2 (fun r t -> SDel (r, t)) (0 -- 2) (0 -- 9));
        (2, map2 (fun j p -> SRew (j, p)) (0 -- 9) (float_range 0.01 0.4));
        (1, map (fun j -> SPrune j) (0 -- 9));
        (1, map2 (fun pairs p -> SAdd (pairs, p)) Test_differential.pairs_gen (float_range 0.01 0.3));
      ])

let batches_gen = QCheck.Gen.(list_size (1 -- 4) (list_size (1 -- 4) spec_gen))

let names = [| "Zoe"; "Yan"; "Ada"; "Lin" |]
let addrs = [| "aaa"; "bbb"; "hk" |]

(* Turn specs into a valid batch against the current head: inserts clone a
   template row (fresh key, randomised name/addr for Customer), deletes
   target live rows not already doomed in this batch, mapping ops resolve
   indices into live ids. *)
let realize (snap : Vcatalog.snapshot) counter specs =
  let cat = snap.Vcatalog.ctx.Urm.Ctx.catalog in
  let doomed : (string * Value.t array, unit) Hashtbl.t = Hashtbl.create 4 in
  let ids = List.map (fun m -> m.Urm.Mapping.id) snap.Vcatalog.mappings in
  List.filter_map
    (fun spec ->
      match spec with
      | SIns (r, t, n, a) ->
        let rel = rels.(r) in
        let stored = Catalog.find cat rel in
        if Relation.is_empty stored then None
        else begin
          incr counter;
          let row =
            Array.copy stored.Relation.rows.(t mod Relation.cardinality stored)
          in
          (match rel with
          | "Customer" ->
            row.(0) <- i (10_000 + !counter);
            row.(1) <- s names.(n);
            row.(5) <- s addrs.(a)
          | "C_Order" -> row.(0) <- i (10_000 + !counter)
          | _ -> row.(0) <- i (10_000 + !counter));
          Some (Mutation.Insert { rel; row })
        end
      | SDel (r, t) ->
        let rel = rels.(r) in
        let stored = Catalog.find cat rel in
        if Relation.is_empty stored then None
        else begin
          let row = stored.Relation.rows.(t mod Relation.cardinality stored) in
          if Hashtbl.mem doomed (rel, row) then None
          else begin
            Hashtbl.replace doomed (rel, row) ();
            Some (Mutation.Delete { rel; row })
          end
        end
      | SRew (j, p) -> (
        match ids with
        | [] -> None
        | _ ->
          Some
            (Mutation.Reweight
               { mapping = List.nth ids (j mod List.length ids); prob = p }))
      | SPrune j -> (
        match ids with
        | [] -> None
        | _ -> Some (Mutation.Prune { mapping = List.nth ids (j mod List.length ids) }))
      | SAdd (pairs, p) ->
        if pairs = [] then None
        else Some (Mutation.Add_mapping { id = None; pairs; prob = p; score = p }))
    specs
  (* One prune/reweight per mapping id per batch: duplicates would race on
     the same id within the staged list. *)
  |> fun batch ->
  let seen = Hashtbl.create 4 in
  List.filter
    (function
      | Mutation.Prune { mapping } | Mutation.Reweight { mapping; _ } ->
        if Hashtbl.mem seen mapping then false
        else begin
          Hashtbl.add seen mapping ();
          true
        end
      | _ -> true)
    batch

let engines =
  [
    ("interpreted", Urm_relalg.Compile.Interpreted);
    ("vectorized", Urm_relalg.Compile.Vectorized);
  ]

let exact = [ Urm.Algorithms.Basic; Urm.Algorithms.Ebasic; Urm.Algorithms.Emqo ]

let qcheck_delta_equals_full =
  QCheck.Test.make
    ~name:"delta-apply ≡ full re-evaluation across mutation sequences"
    ~count:30
    (QCheck.make QCheck.Gen.(pair Test_differential.query_gen batches_gen))
    (fun (q, spec_batches) ->
      List.for_all
        (fun (ename, engine) ->
          let vcat = vcat_of ~engine () in
          let state = ref (State.build (Vcatalog.head vcat) q) in
          let counter = ref 0 in
          List.iter
            (fun specs ->
              let head = Vcatalog.head vcat in
              match realize head counter specs with
              | [] -> ()
              | batch -> (
                match Vcatalog.commit vcat batch with
                | Error msg -> Alcotest.failf "[%s] commit failed: %s" ename msg
                | Ok _ ->
                  let st, status = State.catch_up vcat !state in
                  if status <> `Patched then
                    Alcotest.failf "[%s] expected `Patched catch-up" ename;
                  state := st;
                  let head = Vcatalog.head vcat in
                  let fresh = fresh_answer Urm.Algorithms.Basic head q in
                  if
                    not
                      (String.equal
                         (Test_differential.bytes fresh)
                         (Test_differential.bytes (State.answer !state)))
                  then
                    QCheck.Test.fail_reportf
                      "[%s] patched state diverged from basic after batch \
                       [%s]@.state %a@.fresh %a"
                      ename
                      (String.concat "; "
                         (List.map
                            (fun m -> Format.asprintf "%a" Mutation.pp m)
                            batch))
                      Urm.Answer.pp (State.answer !state) Urm.Answer.pp fresh))
            spec_batches;
          let head = Vcatalog.head vcat in
          List.for_all
            (fun alg ->
              let fresh = fresh_answer alg head q in
              String.equal
                (Test_differential.bytes fresh)
                (Test_differential.bytes (State.answer !state))
              ||
              QCheck.Test.fail_reportf "[%s] final state disagrees with %s" ename
                (Urm.Algorithms.name alg))
            exact)
        engines)

let suite =
  [
    Alcotest.test_case "answer compaction drops retraction ghosts" `Quick test_compact;
    Alcotest.test_case "mutation JSON round trip" `Quick test_mutation_json;
    Alcotest.test_case "commit: COW, atomicity, coercion, history" `Quick
      test_commit_basics;
    Alcotest.test_case "snapshot isolation across a commit" `Quick
      test_snapshot_isolation;
    Alcotest.test_case "drift: 10^4 insert/delete pairs stay eps-equal" `Slow
      test_drift_regression;
    QCheck_alcotest.to_alcotest qcheck_delta_equals_full;
    Alcotest.test_case "a zero-weight mapping keeps its zero buckets" `Quick
      test_zero_weight_keeps_buckets;
  ]
