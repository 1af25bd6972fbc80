(* Lowering {!Algebra.t} expressions to physical {!Plan.t}s.

   The compiler runs the shared logical optimiser first, then lowers the
   optimised tree with the physical decisions the interpreter makes row by
   row taken once, at compile time:

   - column names become integer positions (predicates, projections and
     group keys are compiled against the producing pipe's header);
   - select/project chains fuse into their producer (no intermediate
     relation per σ/π);
   - a select/join/product cluster is flattened into (conjuncts, factors)
     and re-assembled greedily left-deep by estimated cardinality
     ({!Stats_est} when available, the MQO planner's fixed guesses
     otherwise), with the hash-join build on the estimated-smaller input;
   - δπ over a product factorises per connected component of the join
     graph, factors without projected columns becoming emptiness guards —
     the physical form of the interpreter's [distinct_project].

   Compilation cost is paid once per plan shape; {!Plan_cache} amortises it
   across the h reformulated queries of a mapping distribution. *)

type engine = Interpreted | Vectorized

let engine_name = function
  | Interpreted -> "interpreted"
  | Vectorized -> "vectorized"

let engine_of_string = function
  | "interpreted" -> Ok Interpreted
  | "vectorized" -> Ok Vectorized
  | s ->
    Error (Printf.sprintf "unknown engine %S (expected interpreted|vectorized)" s)

type env = {
  cat : Catalog.t;
  lock : Mutex.t;
  mutable stats : Stats_est.t option;
  c_plans : Urm_obs.Metrics.counter;
  c_stats_builds : Urm_obs.Metrics.counter;
  t_compile : Urm_obs.Metrics.timer;
}

let create_env ?(metrics = Urm_obs.Metrics.global) cat =
  let m = Urm_obs.Metrics.scope metrics "relalg" in
  {
    cat;
    lock = Mutex.create ();
    stats = None;
    c_plans = Urm_obs.Metrics.counter m "compile.plans";
    c_stats_builds = Urm_obs.Metrics.counter m "compile.stats_builds";
    t_compile = Urm_obs.Metrics.timer m "compile.seconds";
  }

(* Statistics are built lazily, once per environment (one full scan of the
   catalog), under a mutex so concurrent first compilations are safe. *)
let stats env =
  Mutex.lock env.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock env.lock)
    (fun () ->
      match env.stats with
      | Some st -> st
      | None ->
        let st = Stats_est.build env.cat in
        Urm_obs.Metrics.incr env.c_stats_builds;
        env.stats <- Some st;
        st)

(* ------------------------------------------------------------------ *)
(* Cardinality estimation — the MQO planner's model (fixed fallbacks when a
   column does not resolve to a stored relation's column). *)

let selectivity_select = 0.1
let selectivity_join = 0.05

let unrename col =
  match (String.index_opt col '@', String.index_opt col '#') with
  | Some at, Some hash when at < hash ->
    Some
      ( String.sub col (at + 1) (hash - at - 1),
        String.sub col (hash + 1) (String.length col - hash - 1) )
  | _ -> None

let atom_selectivity st = function
  | Pred.Cmp (Pred.Eq, col, v) -> begin
    match unrename col with
    | Some (rel, c) -> ( try Stats_est.eq_selectivity st rel c v with Not_found -> selectivity_select)
    | None -> selectivity_select
  end
  | Pred.CmpCols (Pred.Eq, a, b) -> begin
    match (unrename a, unrename b) with
    | Some (ra, ca), Some (rb, cb) -> (
      try Stats_est.join_selectivity st ra ca rb cb with Not_found -> selectivity_join)
    | _ -> selectivity_join
  end
  | Pred.True -> 1.
  | _ -> 0.3

let conjs_selectivity st conjs =
  List.fold_left (fun acc c -> acc *. atom_selectivity st c) 1. conjs

let rec est_card st cat = function
  | Algebra.Base n -> float_of_int (Relation.cardinality (Catalog.find cat n))
  | Algebra.Mat r -> float_of_int (Relation.cardinality r)
  | Algebra.Rename (_, e) -> est_card st cat e
  | Algebra.Select (p, e) ->
    Float.max 1. (conjs_selectivity st (Pred.conjuncts p) *. est_card st cat e)
  | Algebra.Project (_, e) | Algebra.Distinct e -> est_card st cat e
  | Algebra.Product (a, b) -> est_card st cat a *. est_card st cat b
  | Algebra.Join (p, a, b) ->
    Float.max 1.
      (conjs_selectivity st (Pred.conjuncts p) *. est_card st cat a *. est_card st cat b)
  | Algebra.Aggregate _ -> 1.
  | Algebra.GroupBy (_, _, e) -> Float.max 1. (0.1 *. est_card st cat e)

(* ------------------------------------------------------------------ *)
(* Predicate and projection compilation against a pipe's header. *)

let positions cols =
  let h = Hashtbl.create (2 * List.length cols) in
  List.iteri (fun i c -> if not (Hashtbl.mem h c) then Hashtbl.add h c i) cols;
  fun c -> match Hashtbl.find_opt h c with Some i -> i | None -> raise Not_found

let test cmp c =
  match cmp with
  | Pred.Eq -> c = 0
  | Pred.Ne -> c <> 0
  | Pred.Lt -> c < 0
  | Pred.Le -> c <= 0
  | Pred.Gt -> c > 0
  | Pred.Ge -> c >= 0

let compile_pred pos p =
  let rec build = function
    | Pred.True -> fun _ -> true
    | Pred.Cmp (cmp, c, v) ->
      let i = pos c in
      fun row -> test cmp (Value.compare row.(i) v)
    | Pred.CmpCols (cmp, a, b) ->
      let i = pos a and j = pos b in
      fun row -> test cmp (Value.compare row.(i) row.(j))
    | Pred.And (a, b) ->
      let fa = build a and fb = build b in
      fun row -> fa row && fb row
    | Pred.Or (a, b) ->
      let fa = build a and fb = build b in
      fun row -> fa row || fb row
    | Pred.Not a ->
      let fa = build a in
      fun row -> not (fa row)
  in
  build p

(* Batch form of [compile_pred]: given a batch, specialise the predicate
   against the concrete vector representations and return a test over
   absolute row indices.  Typed vectors compare unboxed (int/float/interned
   string); constants of a different payload type reduce to the constant
   rank comparison of [Value.compare] (the payload is irrelevant across
   ranks, so a same-rank witness like [Value.Int 0] stands in); boxed
   vectors compare exactly as [compile_pred] does. *)
let compile_bpred pos p =
  let open Column in
  let rec build = function
    | Pred.True -> fun _ _ -> true
    | Pred.Cmp (cmp, col, v) ->
      let i = pos col in
      let null_r = test cmp (Value.compare Value.Null v) in
      fun b ->
        (match b.vecs.(i) with
        | VInt (a, mask) -> (
          match v with
          | Value.Int c -> (
            match mask with
            | None -> fun j -> test cmp (Int.compare a.(j) c)
            | Some m ->
              fun j ->
                if null_at m j then null_r else test cmp (Int.compare a.(j) c))
          | _ ->
            let r = test cmp (Value.compare (Value.Int 0) v) in
            (match mask with
            | None -> fun _ -> r
            | Some m -> fun j -> if null_at m j then null_r else r))
        | VFloat (a, mask) -> (
          match v with
          | Value.Float c -> (
            match mask with
            | None -> fun j -> test cmp (Float.compare a.(j) c)
            | Some m ->
              fun j ->
                if null_at m j then null_r else test cmp (Float.compare a.(j) c))
          | _ ->
            let r = test cmp (Value.compare (Value.Float 0.) v) in
            (match mask with
            | None -> fun _ -> r
            | Some m -> fun j -> if null_at m j then null_r else r))
        | VStr (ids, dict) -> (
          match v with
          | Value.Str s ->
            (* Pre-decide the answer per dictionary entry. *)
            let ok = Array.map (fun d -> test cmp (String.compare d s)) dict in
            fun j ->
              let id = ids.(j) in
              if id < 0 then null_r else ok.(id)
          | _ ->
            let r = test cmp (Value.compare (Value.Str "") v) in
            fun j -> if ids.(j) < 0 then null_r else r)
        | VVal a -> fun j -> test cmp (Value.compare a.(j) v)
        | VRows (rows, c) -> fun j -> test cmp (Value.compare rows.(j).(c) v)
        | VConst c ->
          let r = test cmp (Value.compare c v) in
          fun _ -> r)
    | Pred.CmpCols (cmp, x, y) ->
      let ix = pos x and iy = pos y in
      fun b ->
        (match (b.vecs.(ix), b.vecs.(iy)) with
        | VInt (a, None), VInt (c, None) ->
          fun j -> test cmp (Int.compare a.(j) c.(j))
        | VFloat (a, None), VFloat (c, None) ->
          fun j -> test cmp (Float.compare a.(j) c.(j))
        | va, vb ->
          let ga = Column.getter va and gb = Column.getter vb in
          fun j -> test cmp (Value.compare (ga j) (gb j)))
    | Pred.And (a, b) ->
      let fa = build a and fb = build b in
      fun bt ->
        let ta = fa bt and tb = fb bt in
        fun j -> ta j && tb j
    | Pred.Or (a, b) ->
      let fa = build a and fb = build b in
      fun bt ->
        let ta = fa bt and tb = fb bt in
        fun j -> ta j || tb j
    | Pred.Not a ->
      let fa = build a in
      fun bt ->
        let ta = fa bt in
        fun j -> not (ta j)
  in
  build p

let filter_conjs conjs pipe =
  match conjs with
  | [] -> pipe
  | _ ->
    let pos = positions pipe.Plan.cols in
    let p = Pred.conj conjs in
    Plan.filter ~pred:(compile_pred pos p) ~bpred:(compile_bpred pos p) pipe

let project_to cs pipe =
  if pipe.Plan.cols = cs then pipe
  else
    let pos = positions pipe.Plan.cols in
    Plan.project ~positions:(Array.of_list (List.map pos cs)) ~cols:cs pipe

let agg_spec pipe a =
  let pos = positions pipe.Plan.cols in
  match a with
  | Algebra.Count -> Plan.Count_spec
  | Algebra.Sum c -> Plan.Sum_spec (pos c)

let subset xs set = List.for_all (fun x -> List.mem x set) xs

(* ------------------------------------------------------------------ *)
(* Join-graph construction: flatten a select/join/product cluster into its
   conjuncts and factor expressions (left-to-right leaf order). *)

let rec flatten e preds factors =
  match e with
  | Algebra.Select (p, inner) -> flatten inner (Pred.conjuncts p @ preds) factors
  | Algebra.Product (a, b) ->
    let preds, factors = flatten a preds factors in
    flatten b preds factors
  | Algebra.Join (p, a, b) ->
    let preds = Pred.conjuncts p @ preds in
    let preds, factors = flatten a preds factors in
    flatten b preds factors
  | _ -> (preds, factors @ [ e ])

(* ------------------------------------------------------------------ *)
(* Lowering. *)

type factor = { pipe : Plan.pipe; card : float }

let rec lower env st e =
  match e with
  | Algebra.Base n ->
    let r = Catalog.find env.cat n in
    Plan.scan ~name:n ~cols:(Relation.cols r)
  | Algebra.Mat r -> Plan.const r
  | Algebra.Rename (p, inner) ->
    let pi = lower env st inner in
    Plan.with_cols (List.map (fun c -> p ^ "#" ^ c) pi.Plan.cols) pi
  | Algebra.Select _ | Algebra.Product _ | Algebra.Join _ -> lower_cluster env st e
  | Algebra.Project (cs, inner) -> project_to cs (lower env st inner)
  | Algebra.Distinct (Algebra.Project (cs, inner)) when cs <> [] ->
    lower_distinct_project env st cs inner
  | Algebra.Distinct inner -> Plan.distinct (lower env st inner)
  | Algebra.Aggregate (a, inner) ->
    let pi = lower env st inner in
    Plan.aggregate ~spec:(agg_spec pi a) ~col:(Algebra.output_col a) pi
  | Algebra.GroupBy (keys, a, inner) ->
    let pi = lower env st inner in
    let pos = positions pi.Plan.cols in
    Plan.group_by
      ~key_pos:(Array.of_list (List.map pos keys))
      ~spec:(agg_spec pi a)
      ~cols:(keys @ [ Algebra.output_col a ])
      pi

(* Lower one factor expression, folding in the conjuncts local to it —
   σ[col = const] directly over a stored relation (possibly renamed)
   becomes an index probe, everything else a fused filter. *)
and lower_factor env st fe local =
  let base_probe () =
    let try_probe col v =
      match fe with
      | Algebra.Base n -> Some (n, col, v)
      | Algebra.Rename (p, Algebra.Base n) -> (
        match Eval.strip_prefix p col with
        | Some base_col -> Some (n, base_col, v)
        | None -> None)
      | _ -> None
    in
    let rec pick acc = function
      | [] -> None
      | (Pred.Cmp (Pred.Eq, col, v) as c) :: rest -> (
        match try_probe col v with
        | Some probe -> Some (probe, List.rev_append acc rest)
        | None -> pick (c :: acc) rest)
      | c :: rest -> pick (c :: acc) rest
    in
    pick [] local
  in
  let pipe = lower env st fe in
  let pipe =
    match base_probe () with
    | Some ((n, col, v), rest) ->
      filter_conjs rest (Plan.index_probe ~name:n ~col ~value:v ~cols:pipe.Plan.cols)
    | None -> filter_conjs local pipe
  in
  let card =
    Float.max 1. (conjs_selectivity st local *. est_card st env.cat fe)
  in
  { pipe; card }

(* Greedy left-deep join ordering: start from the estimated-smallest
   factor; repeatedly add the factor connected through applicable conjuncts
   that minimises the estimated joined cardinality (smallest remaining
   factor as cross-product fallback).  The first applicable equality
   conjunct with one side per input becomes the hash key, the rest filter
   the combined row; the hash build goes on the estimated-smaller input. *)
and order_join env st preds factor_exprs =
  (* Conjuncts whose columns sit inside a single factor filter that factor
     before ordering. *)
  let factor_cols = List.map (fun fe -> Eval.cols_of env.cat fe) factor_exprs in
  let local, global =
    List.partition
      (fun p ->
        let pc = Pred.columns p in
        pc <> [] && List.exists (fun cols -> subset pc cols) factor_cols)
      preds
  in
  let factors =
    List.map
      (fun fe ->
        let cols = Eval.cols_of env.cat fe in
        lower_factor env st fe (List.filter (fun p -> subset (Pred.columns p) cols) local))
      factor_exprs
  in
  match factors with
  | [] -> invalid_arg "Compile: empty join cluster"
  | [ f ] -> filter_conjs global f.pipe
  | _ ->
    let smallest rest =
      List.fold_left
        (fun (best, besti, i) f ->
          if f.card < best.card then (f, i, i + 1) else (best, besti, i + 1))
        (List.hd rest, 0, 1) (List.tl rest)
      |> fun (f, i, _) -> (f, i)
    in
    let remove i xs = List.filteri (fun j _ -> j <> i) xs in
    let first, fi = smallest factors in
    let rec grow current rest preds =
      match rest with
      | [] -> filter_conjs preds current.pipe
      | _ ->
        (* Score each candidate: conjuncts applicable once it joins. *)
        let scored =
          List.mapi
            (fun i f ->
              let combined = current.pipe.Plan.cols @ f.pipe.Plan.cols in
              let applicable, _ =
                List.partition (fun p -> subset (Pred.columns p) combined) preds
              in
              let card =
                Float.max 1.
                  (conjs_selectivity st applicable *. current.card *. f.card)
              in
              (i, f, applicable, card))
            rest
        in
        let connected = List.filter (fun (_, _, a, _) -> a <> []) scored in
        let pool = if connected <> [] then connected else scored in
        let best =
          List.fold_left
            (fun best c ->
              let _, _, _, card = c and _, _, _, bcard = best in
              if card < bcard then c else best)
            (List.hd pool) (List.tl pool)
        in
        let i, f, applicable, card = best in
        let remaining = List.filter (fun p -> not (List.memq p applicable)) preds in
        let pipe = join_pair env current f applicable in
        grow { pipe; card } (remove i rest) remaining
    in
    grow first (remove fi factors) global

(* Join [current] with factor [f] under the applicable conjuncts. *)
and join_pair _env current f applicable =
  let lcols = current.pipe.Plan.cols and rcols = f.pipe.Plan.cols in
  let pick_key = function
    | Pred.CmpCols (Pred.Eq, x, y) ->
      if List.mem x lcols && List.mem y rcols then Some (x, y)
      else if List.mem y lcols && List.mem x rcols then Some (y, x)
      else None
    | _ -> None
  in
  let rec find_key acc = function
    | [] -> None
    | c :: rest -> (
      match pick_key c with
      | Some k -> Some (k, List.rev_append acc rest)
      | None -> find_key (c :: acc) rest)
  in
  match find_key [] applicable with
  | Some ((lk, rk), residual_conjs) ->
    let lpos = positions lcols and rpos = positions rcols in
    let residual =
      match residual_conjs with
      | [] -> None
      | _ -> Some (compile_pred (positions (lcols @ rcols)) (Pred.conj residual_conjs))
    in
    Plan.hash_join
      ~build_left:(current.card <= f.card)
      ~lkey:(lpos lk) ~rkey:(rpos rk) ~residual current.pipe f.pipe
  | None -> filter_conjs applicable (Plan.nl_product current.pipe f.pipe)

and lower_cluster env st e =
  let preds, factor_exprs = flatten e [] [] in
  order_join env st preds factor_exprs

(* δπ_C over a join graph: split the factors into connected components of
   the predicate graph, δπ each component to its share of C, combine with
   Cartesian products, and turn componentless-in-C factors into emptiness
   guards. *)
and lower_distinct_project env st cs body =
  let preds, factor_exprs = flatten body [] [] in
  match factor_exprs with
  | [] | [ _ ] -> Plan.distinct (project_to cs (order_join env st preds factor_exprs))
  | _ ->
    let n = List.length factor_exprs in
    let fcols = Array.of_list (List.map (Eval.cols_of env.cat) factor_exprs) in
    (* Union-find over factor indices; every predicate links the factors
       its columns touch. *)
    let parent = Array.init n (fun i -> i) in
    let rec find i = if parent.(i) = i then i else find parent.(i) in
    let union i j = parent.(find i) <- find j in
    List.iter
      (fun p ->
        let idxs = ref [] in
        Array.iteri
          (fun i cols ->
            if List.exists (fun c -> List.mem c cols) (Pred.columns p) then
              idxs := i :: !idxs)
          fcols;
        match !idxs with
        | [] | [ _ ] -> ()
        | first :: rest -> List.iter (fun j -> union first j) rest)
      preds;
    let roots = Array.init n find in
    let comp_roots =
      Array.to_list roots
      |> List.fold_left (fun acc r -> if List.mem r acc then acc else acc @ [ r ]) []
    in
    (* Conjuncts whose columns match no factor must still fail at execution
       like the interpreter's (they reference unknown columns). *)
    let orphans =
      List.filter
        (fun p ->
          not
            (List.exists
               (fun c -> Array.exists (fun cols -> List.mem c cols) fcols)
               (Pred.columns p)))
        preds
    in
    let pieces =
      List.map
        (fun r ->
          let idxs =
            Array.to_list (Array.mapi (fun i rt -> (i, rt)) roots)
            |> List.filter_map (fun (i, rt) -> if rt = r then Some i else None)
          in
          let exprs = List.map (List.nth factor_exprs) idxs in
          let cols = List.concat_map (fun i -> fcols.(i)) idxs in
          let cpreds = List.filter (fun p -> subset (Pred.columns p) cols) preds in
          let joined = order_join env st cpreds exprs in
          let ccs = List.filter (fun c -> List.mem c joined.Plan.cols) cs in
          if ccs = [] then `Guard joined
          else `Piece (Plan.distinct (project_to ccs joined)))
        comp_roots
    in
    let guards = List.filter_map (function `Guard g -> Some g | _ -> None) pieces in
    let carriers = List.filter_map (function `Piece p -> Some p | _ -> None) pieces in
    let combined =
      match carriers with
      | [] ->
        (* No factor carries a projected column — fall back to δπ over the
           whole cluster (cs must then be empty or unknown; mirrors the
           interpreter's general path). *)
        Plan.distinct (project_to cs (order_join env st preds factor_exprs))
      | first :: rest ->
        let prod = List.fold_left Plan.nl_product first rest in
        filter_conjs orphans (project_to cs prod)
    in
    if guards = [] then combined else Plan.guard guards combined

(* ------------------------------------------------------------------ *)

let compile env e =
  Urm_obs.Metrics.time env.t_compile (fun () ->
      let e = Eval.optimize env.cat e in
      let st = stats env in
      let pipe = lower env st e in
      let header = Eval.cols_of env.cat e in
      (* The join-order search may permute columns; re-project so compiled
         and interpreted results carry identical headers. *)
      let pipe = project_to header pipe in
      Urm_obs.Metrics.incr env.c_plans;
      Plan.of_pipe ~header pipe)
