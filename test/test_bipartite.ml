open Urm_bipartite

let test_hungarian_simple () =
  (* Classic 3x3: optimal min assignment cost = 5 (0→1, 1→0, 2→2 etc.). *)
  let cost = [| [| 4.; 1.; 3. |]; [| 2.; 0.; 5. |]; [| 3.; 2.; 2. |] |] in
  let _, total = Hungarian.solve_min cost in
  Alcotest.(check (float 1e-9)) "min cost" 5. total

let test_hungarian_max () =
  let w = [| [| 1.; 5. |]; [| 4.; 2. |] |] in
  let assignment, total = Hungarian.solve_max w in
  Alcotest.(check (float 1e-9)) "max weight" 9. total;
  Alcotest.(check (array int)) "assignment" [| 1; 0 |] assignment

let test_hungarian_rectangular () =
  let cost = [| [| 10.; 1.; 10.; 10. |]; [| 1.; 10.; 10.; 10. |] |] in
  let assignment, total = Hungarian.solve_min cost in
  Alcotest.(check (float 1e-9)) "rect min" 2. total;
  Alcotest.(check (array int)) "rect assignment" [| 1; 0 |] assignment

let test_hungarian_rejects_bad_shapes () =
  Alcotest.check_raises "rows > cols"
    (Invalid_argument "Hungarian.solve_min: more rows than columns") (fun () ->
      ignore (Hungarian.solve_min [| [| 1. |]; [| 2. |] |]));
  Alcotest.check_raises "ragged"
    (Invalid_argument "Hungarian.solve_min: ragged cost matrix") (fun () ->
      ignore (Hungarian.solve_min [| [| 1.; 2. |]; [| 2. |] |]))

(* Brute-force all partial matchings for cross-checking Murty. *)
let brute_force weights =
  let n = Array.length weights in
  let m = if n = 0 then 0 else Array.length weights.(0) in
  let results = ref [] in
  let rec go i used pairs score =
    if i = n then results := (List.rev pairs, score) :: !results
    else begin
      go (i + 1) used pairs score;
      for j = 0 to m - 1 do
        if weights.(i).(j) > 0. && not (List.mem j used) then
          go (i + 1) (j :: used) ((i, j) :: pairs) (score +. weights.(i).(j))
      done
    end
  in
  go 0 [] [] 0.;
  List.sort (fun (_, a) (_, b) -> Float.compare b a) !results

let test_murty_matches_brute_force () =
  let weights =
    [|
      [| 0.9; 0.6; 0.0 |];
      [| 0.7; 0.8; 0.3 |];
      [| 0.0; 0.5; 0.4 |];
    |]
  in
  let k = 8 in
  let murty = Murty.k_best ~weights ~k in
  let brute = brute_force weights in
  Alcotest.(check int) "got k" k (List.length murty);
  List.iteri
    (fun i (a : Murty.assignment) ->
      let _, expected = List.nth brute i in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "rank %d score" i) expected a.score)
    murty

let test_murty_distinct () =
  let weights = [| [| 0.9; 0.8 |]; [| 0.7; 0.6 |] |] in
  let results = Murty.k_best ~weights ~k:20 in
  let keys = List.map (fun (a : Murty.assignment) -> List.sort compare a.pairs) results in
  Alcotest.(check int) "all distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_murty_descending () =
  let weights =
    [| [| 0.9; 0.2; 0.5 |]; [| 0.1; 0.8; 0.4 |]; [| 0.3; 0.6; 0.7 |] |]
  in
  let results = Murty.k_best ~weights ~k:10 in
  let rec desc = function
    | (a : Murty.assignment) :: (b :: _ as rest) -> a.score >= b.score -. 1e-9 && desc rest
    | _ -> true
  in
  Alcotest.(check bool) "scores descending" true (desc results)

let test_murty_partial_allowed () =
  (* Only one positive edge: best solution uses it, second-best is empty. *)
  let weights = [| [| 0.5; 0. |]; [| 0.; 0. |] |] in
  let results = Murty.k_best ~weights ~k:3 in
  Alcotest.(check int) "two solutions" 2 (List.length results);
  (match results with
  | [ first; second ] ->
    Alcotest.(check (float 1e-9)) "best score" 0.5 first.Murty.score;
    Alcotest.(check int) "best has one pair" 1 (List.length first.Murty.pairs);
    Alcotest.(check (float 1e-9)) "empty score" 0. second.Murty.score;
    Alcotest.(check int) "empty pairs" 0 (List.length second.Murty.pairs)
  | _ -> Alcotest.fail "unexpected shape")

let test_murty_k_larger_than_space () =
  let weights = [| [| 0.9 |] |] in
  let results = Murty.k_best ~weights ~k:100 in
  Alcotest.(check int) "only 2 matchings exist" 2 (List.length results)

(* Brute-force optimal assignment over all row permutations (n ≤ 4). *)
let brute_min_assignment cost =
  let n = Array.length cost in
  let m = Array.length cost.(0) in
  let best = ref infinity in
  let rec go i used acc =
    if acc >= !best then ()
    else if i = n then best := acc
    else
      for j = 0 to m - 1 do
        if not (List.mem j used) then go (i + 1) (j :: used) (acc +. cost.(i).(j))
      done
  in
  go 0 [] 0.;
  !best

let qcheck_hungarian_optimal =
  let gen =
    QCheck.Gen.(
      2 -- 4 >>= fun n ->
      n -- 5 >>= fun m ->
      array_size (return n) (array_size (return m) (float_bound_inclusive 10.)))
  in
  QCheck.Test.make ~name:"hungarian finds the optimum" ~count:100 (QCheck.make gen)
    (fun cost ->
      let _, total = Hungarian.solve_min cost in
      abs_float (total -. brute_min_assignment cost) < 1e-9)

let qcheck_hungarian_valid_assignment =
  let gen =
    QCheck.Gen.(
      2 -- 5 >>= fun n ->
      n -- 6 >>= fun m ->
      array_size (return n) (array_size (return m) (float_bound_inclusive 10.)))
  in
  QCheck.Test.make ~name:"hungarian assigns distinct columns" ~count:100
    (QCheck.make gen) (fun cost ->
      let assignment, _ = Hungarian.solve_min cost in
      let cols = Array.to_list assignment in
      List.length (List.sort_uniq compare cols) = Array.length cost
      && List.for_all (fun j -> j >= 0 && j < Array.length cost.(0)) cols)

let qcheck_murty_vs_brute =
  let gen =
    QCheck.Gen.(
      let dim = 2 -- 4 in
      pair dim dim >>= fun (n, m) ->
      array_size (return n) (array_size (return m) (float_bound_inclusive 1.))
      >|= fun w -> w)
  in
  QCheck.Test.make ~name:"murty scores match brute force" ~count:60 (QCheck.make gen)
    (fun weights ->
      let k = 6 in
      let murty = Murty.k_best ~weights ~k in
      let brute = brute_force weights in
      let expected =
        List.filteri (fun i _ -> i < k) (List.map snd brute)
      in
      let got = List.map (fun (a : Murty.assignment) -> a.score) murty in
      List.length got = min k (List.length brute)
      && List.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) got expected)

(* One augmenting path re-solves a square problem after a row's assigned
   edge is banned: start from the optimum's potentials, raise the cost to
   infinity, free the row and augment once. *)
let qcheck_hungarian_reoptimises =
  let gen =
    QCheck.Gen.(
      2 -- 5 >>= fun n ->
      pair (int_bound (n - 1))
        (array_size (return n) (array_size (return n) (float_bound_inclusive 10.))))
  in
  QCheck.Test.make ~name:"hungarian reoptimises one banned row" ~count:100
    (QCheck.make gen) (fun (row, cost) ->
      let n = Array.length cost in
      let t = Hungarian.create ~rows:n ~cols:n in
      for i = 0 to n - 1 do
        assert (Hungarian.augment t ~cost:(Array.get cost) i)
      done;
      let banned = Array.map Array.copy cost in
      banned.(row).((Hungarian.assignment t).(row)) <- infinity;
      Hungarian.release t row;
      assert (Hungarian.augment t ~cost:(Array.get banned) row);
      let a = Hungarian.assignment t in
      let total = ref 0. in
      Array.iteri (fun i j -> total := !total +. banned.(i).(j)) a;
      List.length (List.sort_uniq compare (Array.to_list a)) = n
      && abs_float (!total -. brute_min_assignment banned) < 1e-9)

let test_hungarian_no_path () =
  let cost = [| [| 1.; infinity |]; [| 2.; infinity |] |] in
  let t = Hungarian.create ~rows:2 ~cols:2 in
  Alcotest.(check bool) "first row" true (Hungarian.augment t ~cost:(Array.get cost) 0);
  Alcotest.(check bool) "second row has no column" false
    (Hungarian.augment t ~cost:(Array.get cost) 1);
  Alcotest.check_raises "solve_min"
    (Invalid_argument "Hungarian.solve_min: no finite assignment") (fun () ->
      ignore (Hungarian.solve_min cost))

let bits (a : Murty.assignment) = Int64.bits_of_float a.score

(* Consecutive runs of bit-equal scores. *)
let tie_groups xs =
  List.fold_left
    (fun acc (a : Murty.assignment) ->
      match acc with
      | (b :: _ as g) :: rest when Int64.equal (bits a) (bits b) -> (a :: g) :: rest
      | _ -> [ a ] :: acc)
    [] xs
  |> List.rev_map List.rev

let pair_sets xs = List.sort compare (List.map (fun (a : Murty.assignment) -> a.pairs) xs)

(* Against the from-scratch reference on small matrices with missing edges
   (weights <= 0) and forced ties (weights from a four-value set, whose
   sums are exact): bit-equal score sequences, and within each tie group
   the same assignments, except in a group the cut at k may split. *)
let qcheck_murty_vs_reference =
  let gen =
    QCheck.Gen.(
      triple (1 -- 7) (1 -- 8) (1 -- 60) >>= fun (n, m, k) ->
      let w = oneofl [ 0.; -0.5; 0.25; 0.5; 0.75; 1.0 ] in
      array_size (return n) (array_size (return m) w) >|= fun weights -> (weights, k))
  in
  QCheck.Test.make ~name:"murty agrees with the from-scratch reference" ~count:300
    (QCheck.make gen) (fun (weights, k) ->
      let got = Murty.k_best ~weights ~k in
      let expected = Murty_ref.k_best ~weights ~k in
      let groups xs =
        let gs = tie_groups xs in
        if List.length expected = k then List.filteri (fun i _ -> i < List.length gs - 1) gs
        else gs
      in
      List.map bits got = List.map bits expected
      && List.length (pair_sets got) = List.length (List.sort_uniq compare (pair_sets got))
      && List.for_all2
           (fun g e -> pair_sets g = pair_sets e)
           (groups got) (groups expected))

(* The matcher's score matrices of the three targets: the reoptimised
   enumeration returns the reference's list exactly. *)
let test_murty_reference_targets () =
  List.iter
    (fun (name, target) ->
      let cands = Urm_matcher.Match.candidates ~source:Urm_tpch.Gen.schema ~target () in
      let _, _, weights = Urm.Mapgen.weights cands in
      let got = Murty.k_best ~weights ~k:100 in
      let expected = Murty_ref.k_best ~weights ~k:100 in
      Alcotest.(check (list (list (pair int int))))
        (name ^ " pairs") (List.map (fun (a : Murty.assignment) -> a.pairs) expected)
        (List.map (fun (a : Murty.assignment) -> a.pairs) got);
      Alcotest.(check (list int64)) (name ^ " score bits") (List.map bits expected)
        (List.map bits got))
    Urm_workload.Targets.all

let suite =
  [
    Alcotest.test_case "hungarian 3x3" `Quick test_hungarian_simple;
    Alcotest.test_case "hungarian max" `Quick test_hungarian_max;
    Alcotest.test_case "hungarian rectangular" `Quick test_hungarian_rectangular;
    Alcotest.test_case "hungarian bad shapes" `Quick test_hungarian_rejects_bad_shapes;
    Alcotest.test_case "murty = brute force" `Quick test_murty_matches_brute_force;
    Alcotest.test_case "murty distinct" `Quick test_murty_distinct;
    Alcotest.test_case "murty descending" `Quick test_murty_descending;
    Alcotest.test_case "murty partial matchings" `Quick test_murty_partial_allowed;
    Alcotest.test_case "murty exhausts space" `Quick test_murty_k_larger_than_space;
    Alcotest.test_case "hungarian no augmenting path" `Quick test_hungarian_no_path;
    Alcotest.test_case "murty = reference on the targets" `Quick
      test_murty_reference_targets;
    QCheck_alcotest.to_alcotest qcheck_hungarian_optimal;
    QCheck_alcotest.to_alcotest qcheck_hungarian_valid_assignment;
    QCheck_alcotest.to_alcotest qcheck_murty_vs_brute;
    QCheck_alcotest.to_alcotest qcheck_hungarian_reoptimises;
    QCheck_alcotest.to_alcotest qcheck_murty_vs_reference;
  ]
