open Urm_relalg

type metrics = { candidates : int; chosen : int; cost_evaluations : int }

type plan = {
  queries : Algebra.t list;  (* optimised, original order *)
  shared_exprs : Algebra.t list;  (* dependency order *)
  plan_metrics : metrics;
  total_cost : float;
}

let metrics p = p.plan_metrics
let shared p = p.shared_exprs

(* ------------------------------------------------------------------ *)
(* Cardinality and cost estimation.  Without statistics the planner uses
   fixed selectivity guesses — it needs relative costs that are stable
   across runs, not accuracy; with statistics ({!Stats_est}) it estimates
   per-predicate selectivities from the data. *)

let selectivity_select = 0.1
let selectivity_join = 0.05

(* Instantiated columns are named ["alias@rel#col"]; recover (rel, col) for
   statistics lookups. *)
let unrename col =
  match (String.index_opt col '@', String.index_opt col '#') with
  | Some at, Some hash when at < hash ->
    Some
      ( String.sub col (at + 1) (hash - at - 1),
        String.sub col (hash + 1) (String.length col - hash - 1) )
  | _ -> None

let pred_selectivity stats p =
  let atom = function
    | Pred.Cmp (Pred.Eq, col, v) -> begin
      match (stats, unrename col) with
      | Some st, Some (rel, c) -> Stats_est.eq_selectivity st rel c v
      | _ -> selectivity_select
    end
    | Pred.CmpCols (Pred.Eq, a, b) -> begin
      match (stats, unrename a, unrename b) with
      | Some st, Some (ra, ca), Some (rb, cb) ->
        Stats_est.join_selectivity st ra ca rb cb
      | _ -> selectivity_join
    end
    | Pred.True -> 1.
    | _ -> 0.3
  in
  match Pred.conjuncts p with
  | [] -> 1.
  | conjs -> List.fold_left (fun acc c -> acc *. atom c) 1. conjs

let rec est_card_with stats cat = function
  | Algebra.Base n -> float_of_int (Relation.cardinality (Catalog.find cat n))
  | Algebra.Mat r -> float_of_int (Relation.cardinality r)
  | Algebra.Rename (_, e) -> est_card_with stats cat e
  | Algebra.Select (p, e) ->
    Float.max 1. (pred_selectivity stats p *. est_card_with stats cat e)
  | Algebra.Project (_, e) | Algebra.Distinct e -> est_card_with stats cat e
  | Algebra.Product (a, b) -> est_card_with stats cat a *. est_card_with stats cat b
  | Algebra.Join (p, a, b) ->
    Float.max 1.
      (pred_selectivity stats p
      *. est_card_with stats cat a
      *. est_card_with stats cat b)
  | Algebra.Aggregate _ -> 1.
  | Algebra.GroupBy (_, _, e) ->
    Float.max 1. (0.1 *. est_card_with stats cat e)

(* Work performed by the operator at the root of [e] (inputs scanned plus
   output produced); leaves are free.  [est] is the cardinality estimator. *)
let node_work est e =
  let inputs = List.fold_left (fun acc c -> acc +. est c) 0. (Algebra.children e) in
  match e with
  | Algebra.Base _ | Algebra.Mat _ | Algebra.Rename _ -> 0.
  | Algebra.Product (a, b) -> inputs +. (est a *. est b)
  | _ -> inputs +. est e

(* ------------------------------------------------------------------ *)
(* Cost of evaluating [e] given a set of materialised fingerprints: a
   materialised node costs only its (re)scan. *)

let cost_of est mat_set counter e =
  let rec go ~root e =
    incr counter;
    let fp = Algebra.fingerprint e in
    if (not root) && Hashtbl.mem mat_set fp then est e
    else
      node_work est e
      +. List.fold_left (fun acc c -> acc +. go ~root:false c) 0. (Algebra.children e)
  in
  go ~root:true e

(* Total cost of all queries plus the one-off cost of computing each
   materialised expression (which may itself reuse other shares). *)
let total_cost est mat_exprs queries counter =
  let mat_set = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace mat_set (Algebra.fingerprint e) ()) mat_exprs;
  let qcost =
    List.fold_left
      (fun acc q ->
        acc
        +.
        let fp = Algebra.fingerprint q in
        if Hashtbl.mem mat_set fp then est q else cost_of est mat_set counter q)
      0. queries
  in
  let mcost =
    List.fold_left
      (fun acc m ->
        let others = Hashtbl.copy mat_set in
        Hashtbl.remove others (Algebra.fingerprint m);
        (* Computing the share once, plus the cost of storing its result —
           the write cost is what stops the planner from materialising huge
           unfiltered products whose reuse saves nothing. *)
        acc +. cost_of est others counter m +. est m)
      0. mat_exprs
  in
  qcost +. mcost

(* ------------------------------------------------------------------ *)
(* The cost model, exposed for the factorized executor's cheap DAG pass
   ({!Dag}), which needs relative costs without the greedy search. *)

let est_card ?stats cat e = est_card_with stats cat e

let eval_cost ?stats cat e =
  cost_of (est_card_with stats cat) (Hashtbl.create 1) (ref 0) e

(* ------------------------------------------------------------------ *)

let plan ?stats cat queries =
  let est = est_card_with stats cat in
  let queries = List.map (Eval.optimize cat) queries in
  (* Candidate shared subexpressions: any subexpression with at least one
     operator that occurs in at least two distinct positions. *)
  let occurrences = Hashtbl.create 256 in
  List.iter
    (fun q ->
      List.iter
        (fun sub ->
          if Algebra.size sub >= 1 then begin
            let fp = Algebra.fingerprint sub in
            let count, _ =
              try Hashtbl.find occurrences fp with Not_found -> (0, sub)
            in
            Hashtbl.replace occurrences fp (count + 1, sub)
          end)
        (Algebra.subexpressions q))
    queries;
  let candidates =
    Hashtbl.fold (fun _ (count, sub) acc -> if count >= 2 then sub :: acc else acc)
      occurrences []
    |> List.sort Algebra.compare
  in
  let counter = ref 0 in
  (* Greedy with full benefit recomputation: the Roy et al. "Greedy"
     strategy.  Each iteration costs O(|remaining| · Σ|query|). *)
  let rec greedy chosen remaining current_cost =
    let best =
      List.fold_left
        (fun best cand ->
          let c = total_cost est (cand :: chosen) queries counter in
          match best with
          | Some (_, best_cost) when best_cost <= c -> best
          | _ when c < current_cost -> Some (cand, c)
          | best -> best)
        None remaining
    in
    match best with
    | None -> (List.rev chosen, current_cost)
    | Some (cand, c) ->
      let remaining = List.filter (fun r -> not (Algebra.equal r cand)) remaining in
      greedy (cand :: chosen) remaining c
  in
  let initial = total_cost est [] queries counter in
  let chosen, final_cost = greedy [] candidates initial in
  (* Dependency order: smaller expressions first so that a share which is a
     subexpression of another share is materialised before it. *)
  let shared_exprs =
    List.sort (fun a b -> Int.compare (Algebra.size a) (Algebra.size b)) chosen
  in
  {
    queries;
    shared_exprs;
    plan_metrics =
      {
        candidates = List.length candidates;
        chosen = List.length chosen;
        cost_evaluations = !counter;
      };
    total_cost = final_cost;
  }

(* ------------------------------------------------------------------ *)
(* Execution: evaluate with a fingerprint-keyed memo so every shared
   subexpression runs exactly once. *)

let execute_iter ?ctrs ?eval cat p ~f =
  let eval_expr =
    match eval with Some f -> f | None -> Eval.eval ?ctrs cat
  in
  let memo : (string, Relation.t) Hashtbl.t = Hashtbl.create 64 in
  let shared_set = Hashtbl.create 64 in
  List.iter
    (fun e -> Hashtbl.replace shared_set (Algebra.fingerprint e) ())
    p.shared_exprs;
  (* Evaluate one expression with its proper shared subexpressions swapped
     for their materialised results; everything in between stays symbolic so
     the engine can still pipeline, push selections and factorise
     distinct-projections. *)
  let rec eval_memo e =
    let fp = Algebra.fingerprint e in
    match Hashtbl.find_opt memo fp with
    | Some r -> r
    | None ->
      let r = eval_expr (swap_children e) in
      if Hashtbl.mem shared_set fp then Hashtbl.replace memo fp r;
      r
  and swap e =
    if Hashtbl.mem shared_set (Algebra.fingerprint e) then Algebra.Mat (eval_memo e)
    else swap_children e
  and swap_children e =
    match e with
    | Algebra.Base _ | Algebra.Mat _ -> e
    | Algebra.Rename (pfx, c) -> Algebra.Rename (pfx, swap c)
    | Algebra.Select (pr, c) -> Algebra.Select (pr, swap c)
    | Algebra.Project (cs, c) -> Algebra.Project (cs, swap c)
    | Algebra.Distinct c -> Algebra.Distinct (swap c)
    | Algebra.Product (a, b) -> Algebra.Product (swap a, swap b)
    | Algebra.Join (pr, a, b) -> Algebra.Join (pr, swap a, swap b)
    | Algebra.Aggregate (a, c) -> Algebra.Aggregate (a, swap c)
    | Algebra.GroupBy (keys, a, c) -> Algebra.GroupBy (keys, a, swap c)
  in
  List.iter (fun e -> ignore (eval_memo e)) p.shared_exprs;
  List.iteri (fun i q -> f i q (eval_memo q)) p.queries

let execute ?ctrs ?eval cat p =
  let out = ref [] in
  execute_iter ?ctrs ?eval cat p ~f:(fun _ q r -> out := (q, r) :: !out);
  List.rev !out
