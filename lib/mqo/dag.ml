open Urm_relalg

(* The factorized executor's common-subexpression pass.

   Unlike {!Planner}, which deliberately performs the expensive Roy et al.
   greedy search the paper attributes to MQO, this pass is a single
   counting sweep with a local benefit test: planning must stay cheap
   enough that the factorized engine wins wall-clock even when nothing is
   shareable.  Subexpressions are keyed on the canonical fingerprint
   ({!Algebra.canonical_fingerprint}), so conjunct-permuted duplicates
   arriving from different mappings count as one node of the DAG. *)

type share = { expr : Algebra.t; occurrences : int }

type t = {
  shares : share list;  (* dependency order: smaller expressions first *)
  candidates : int;
}

let shares t = List.map (fun s -> s.expr) t.shares
let chosen t = List.length t.shares
let candidates t = t.candidates
let empty = { shares = []; candidates = 0 }

(* Materialisation only pays for operators that reduce or combine:
   leaves and renames are free to re-scan, raw products cost more to
   store than to recompute (the write cost exceeds the scan), and scalar
   aggregates are one row — cheaper to recompute than to manage. *)
let worth_materialising = function
  | Algebra.Select _ | Algebra.Project _ | Algebra.Distinct _
  | Algebra.Join _ | Algebra.GroupBy _ -> true
  | Algebra.Base _ | Algebra.Mat _ | Algebra.Rename _ | Algebra.Product _
  | Algebra.Aggregate _ -> false

let build ?stats cat exprs =
  let occurrences : (string, int * Algebra.t) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun e ->
      List.iter
        (fun sub ->
          if Algebra.size sub >= 1 && worth_materialising sub then begin
            let fp = Algebra.canonical_fingerprint sub in
            match Hashtbl.find_opt occurrences fp with
            | Some (count, first) ->
              Hashtbl.replace occurrences fp (count + 1, first)
            | None ->
              Hashtbl.add occurrences fp (1, sub);
              order := fp :: !order
          end)
        (Algebra.subexpressions e))
    exprs;
  let candidates = ref 0 in
  let chosen =
    List.rev !order
    |> List.filter_map (fun fp ->
           let count, expr = Hashtbl.find occurrences fp in
           if count < 2 then None
           else begin
             incr candidates;
             (* Benefit of materialising once and re-scanning [count - 1]
                times, against the write cost of storing the result — the
                guard that keeps huge low-reuse intermediates symbolic. *)
             let cost = Planner.eval_cost ?stats cat expr in
             let card = Planner.est_card ?stats cat expr in
             let benefit = (float_of_int (count - 1) *. cost) -. card in
             if benefit > 0. then Some { expr; occurrences = count } else None
           end)
  in
  (* Dependency order: smaller first, so a share nested inside another is
     materialised before its host substitutes it. *)
  let shares =
    List.stable_sort
      (fun a b -> Int.compare (Algebra.size a.expr) (Algebra.size b.expr))
      chosen
  in
  { shares; candidates = !candidates }

(* [substitute lookup e] swaps every maximal subtree whose canonical
   fingerprint has a materialised result into a [Mat] leaf.  Evaluating
   the shares in dependency order and adding each result to [lookup]'s
   table as it completes makes self-substitution impossible: a share being
   evaluated is not yet in the table, so only its proper subshares swap. *)
let substitute lookup e =
  let rec swap e =
    match lookup (Algebra.canonical_fingerprint e) with
    | Some r -> Algebra.Mat r
    | None -> (
      match e with
      | Algebra.Base _ | Algebra.Mat _ -> e
      | Algebra.Rename (p, c) -> Algebra.Rename (p, swap c)
      | Algebra.Select (p, c) -> Algebra.Select (p, swap c)
      | Algebra.Project (cs, c) -> Algebra.Project (cs, swap c)
      | Algebra.Distinct c -> Algebra.Distinct (swap c)
      | Algebra.Product (a, b) -> Algebra.Product (swap a, swap b)
      | Algebra.Join (p, a, b) -> Algebra.Join (p, swap a, swap b)
      | Algebra.Aggregate (a, c) -> Algebra.Aggregate (a, swap c)
      | Algebra.GroupBy (keys, a, c) -> Algebra.GroupBy (keys, a, swap c))
  in
  swap e
