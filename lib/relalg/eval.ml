(* Pre-resolved handles into the run's metrics scope, so the hot path never
   touches the registry's hashtable. *)
type op_metrics = {
  ops : Urm_obs.Metrics.counter;
  rows : Urm_obs.Metrics.counter;
  op_select : Urm_obs.Metrics.counter;
  sel_index : Urm_obs.Metrics.counter;
  sel_scan : Urm_obs.Metrics.counter;
  op_project : Urm_obs.Metrics.counter;
  op_distinct : Urm_obs.Metrics.counter;
  op_product : Urm_obs.Metrics.counter;
  op_join : Urm_obs.Metrics.counter;
  op_aggregate : Urm_obs.Metrics.counter;
  op_groupby : Urm_obs.Metrics.counter;
}

type counters = {
  mutable operators : int;
  mutable rows_produced : int;
  m : op_metrics;
}

let fresh_counters ?(metrics = Urm_obs.Metrics.global) () =
  let m = Urm_obs.Metrics.scope metrics "relalg" in
  let c name = Urm_obs.Metrics.counter m name in
  {
    operators = 0;
    rows_produced = 0;
    m =
      {
        ops = c "operators";
        rows = c "rows_produced";
        op_select = c "op.select";
        sel_index = c "select.index_probe";
        sel_scan = c "select.scan";
        op_project = c "op.project";
        op_distinct = c "op.distinct";
        op_product = c "op.product";
        op_join = c "op.join";
        op_aggregate = c "op.aggregate";
        op_groupby = c "op.groupby";
      };
  }

let rec cols_of cat = function
  | Algebra.Base n -> Relation.cols (Catalog.find cat n)
  | Algebra.Mat r -> Relation.cols r
  | Algebra.Rename (p, e) -> List.map (fun c -> p ^ "#" ^ c) (cols_of cat e)
  | Algebra.Select (_, e) | Algebra.Distinct e -> cols_of cat e
  | Algebra.Project (cs, _) -> cs
  | Algebra.Product (a, b) | Algebra.Join (_, a, b) -> cols_of cat a @ cols_of cat b
  | Algebra.Aggregate (a, _) -> [ Algebra.output_col a ]
  | Algebra.GroupBy (keys, a, _) -> keys @ [ Algebra.output_col a ]

let subset xs set = List.for_all (fun x -> List.mem x set) xs

(* Selection pushdown and join formation.  [push p e] sinks the (atomic)
   conjunct [p] as deep as its column set allows. *)
let optimize cat expr =
  let rec opt e =
    match e with
    | Algebra.Base _ | Algebra.Mat _ -> e
    | Algebra.Rename (p, inner) -> Algebra.Rename (p, opt inner)
    | Algebra.Select (p, inner) ->
      let inner = opt inner in
      List.fold_left (fun acc c -> push c acc) inner (Pred.conjuncts p)
    | Algebra.Project (cs, inner) -> Algebra.Project (cs, opt inner)
    | Algebra.Distinct inner -> Algebra.Distinct (opt inner)
    | Algebra.Product (a, b) -> Algebra.Product (opt a, opt b)
    | Algebra.Join (p, a, b) -> form_join p (opt a) (opt b)
    | Algebra.Aggregate (a, inner) -> Algebra.Aggregate (a, opt inner)
    | Algebra.GroupBy (keys, a, inner) -> Algebra.GroupBy (keys, a, opt inner)
  and push p e =
    let pcols = Pred.columns p in
    match e with
    | Algebra.Product (a, b) ->
      if subset pcols (cols_of cat a) then Algebra.Product (push p a, b)
      else if subset pcols (cols_of cat b) then Algebra.Product (a, push p b)
      else begin
        match p with
        | Pred.CmpCols (Pred.Eq, _, _) -> form_join p a b
        | _ -> Algebra.Select (p, e)
      end
    | Algebra.Join (jp, a, b) ->
      if subset pcols (cols_of cat a) then Algebra.Join (jp, push p a, b)
      else if subset pcols (cols_of cat b) then Algebra.Join (jp, a, push p b)
      else Algebra.Join (Pred.And (jp, p), a, b)
    | Algebra.Select (q, inner) ->
      (* Sink below an existing selection so equality conjuncts can reach a
         base relation's index. *)
      Algebra.Select (q, push p inner)
    | Algebra.Base _ | Algebra.Mat _ | Algebra.Rename _ | Algebra.Project _
    | Algebra.Distinct _ | Algebra.Aggregate _ | Algebra.GroupBy _ ->
      Algebra.Select (p, e)
  (* Join–product associativity: joining A×B with C when the join columns
     touch only B gives A × (B ⋈ C) — keeps Cartesian factors out of the
     join's inputs so they multiply small (already-joined) results instead
     of raw relations. *)
  and form_join p a b =
    let pcols = Pred.columns p in
    let acols = cols_of cat a in
    let local = List.filter (fun c -> List.mem c acols) pcols in
    match (a, b) with
    | Algebra.Product (a1, a2), _ when subset local (cols_of cat a1) ->
      Algebra.Product (a2, form_join p a1 b)
    | Algebra.Product (a1, a2), _ when subset local (cols_of cat a2) ->
      Algebra.Product (a1, form_join p a2 b)
    | _, Algebra.Product (b1, b2)
      when subset (List.filter (fun c -> not (List.mem c local)) pcols) (cols_of cat b1)
      ->
      Algebra.Product (b2, form_join p a b1)
    | _, Algebra.Product (b1, b2)
      when subset (List.filter (fun c -> not (List.mem c local)) pcols) (cols_of cat b2)
      ->
      Algebra.Product (b1, form_join p a b2)
    | _ -> Algebra.Join (p, a, b)
  in
  opt expr

(* Strip a rename prefix from a column name, if present. *)
let strip_prefix prefix col =
  let p = prefix ^ "#" in
  let lp = String.length p in
  if String.length col > lp && String.equal (String.sub col 0 lp) p then
    Some (String.sub col lp (String.length col - lp))
  else None

(* [count ctrs kind rel] accounts one executed operator producing [rel];
   [kind] selects the per-operator-kind counter.  The constant accessor
   closures at the call sites compile to static closures — no allocation. *)
let count ctrs kind rel =
  (match ctrs with
  | Some c ->
    c.operators <- c.operators + 1;
    let n = Relation.cardinality rel in
    c.rows_produced <- c.rows_produced + n;
    Urm_obs.Metrics.incr c.m.ops;
    Urm_obs.Metrics.incr ~by:n c.m.rows;
    Urm_obs.Metrics.incr (kind c.m)
  | None -> ());
  rel

(* Account an access-path decision of a selection (index probe vs scan). *)
let bump ctrs kind =
  match ctrs with Some c -> Urm_obs.Metrics.incr (kind c.m) | None -> ()

(* The same accounting, exposed to the plan engine ({!Plan}), which has
   row counts rather than result relations in hand. *)
type op_kind =
  | Op_select
  | Op_project
  | Op_distinct
  | Op_product
  | Op_join
  | Op_aggregate
  | Op_groupby

type access_path = Index_probe | Scan

let op_counter m = function
  | Op_select -> m.op_select
  | Op_project -> m.op_project
  | Op_distinct -> m.op_distinct
  | Op_product -> m.op_product
  | Op_join -> m.op_join
  | Op_aggregate -> m.op_aggregate
  | Op_groupby -> m.op_groupby

let record_op ctrs kind ~rows =
  match ctrs with
  | None -> ()
  | Some c ->
    c.operators <- c.operators + 1;
    c.rows_produced <- c.rows_produced + rows;
    Urm_obs.Metrics.incr c.m.ops;
    Urm_obs.Metrics.incr ~by:rows c.m.rows;
    Urm_obs.Metrics.incr (op_counter c.m kind)

let record_access ctrs path =
  bump ctrs (fun m -> match path with Index_probe -> m.sel_index | Scan -> m.sel_scan)

(* One forward pass per aggregate; no per-column value list is ever
   materialised.  SUM folds with {!Sum_acc}, the plan engine's accumulator
   too. *)
let aggregate agg rel =
  let v =
    match agg with
    | Algebra.Count -> Value.Int (Relation.cardinality rel)
    | Algebra.Sum col ->
      let pos = Relation.col_pos rel col in
      let acc = Sum_acc.create () in
      Relation.iter (fun row -> Sum_acc.add acc row.(pos)) rel;
      Sum_acc.value acc
  in
  Relation.create ~cols:[ Algebra.output_col agg ] [ [| v |] ]

(* Hash grouping: one output row per distinct key combination, aggregating
   the group's rows. *)
let group_by keys agg rel =
  let key_pos = List.map (Relation.col_pos rel) keys in
  (* Resolve SUM's column even when no group forms, as [aggregate] and the
     plan engine do: an unknown column fails on an empty input too. *)
  (match agg with
  | Algebra.Sum col -> ignore (Relation.col_pos rel col)
  | Algebra.Count -> ());
  let groups : (Value.t array, Value.t array list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Relation.iter
    (fun row ->
      let key = Array.of_list (List.map (fun i -> row.(i)) key_pos) in
      match Hashtbl.find_opt groups key with
      | Some rows -> rows := row :: !rows
      | None ->
        Hashtbl.add groups key (ref [ row ]);
        order := key :: !order)
    rel;
  let out_cols = keys @ [ Algebra.output_col agg ] in
  let rows =
    List.rev_map
      (fun key ->
        let members = !(Hashtbl.find groups key) in
        let sub = Relation.of_rows ~cols:(Relation.cols rel) (Array.of_list members) in
        let agg_rel = aggregate agg sub in
        Array.append key [| Relation.value agg_rel 0 (Algebra.output_col agg) |])
      !order
  in
  Relation.create ~cols:out_cols rows

(* An indexable selection: σ[col = const] directly over a base relation,
   possibly through a rename. *)
let indexed_select cat pred inner =
  match (pred, inner) with
  | Pred.Cmp (Pred.Eq, col, v), Algebra.Base n when Catalog.indexing_enabled cat ->
    let rows = Catalog.lookup cat n col v in
    Some (Relation.of_rows ~cols:(cols_of cat inner) (Array.of_list rows))
  | Pred.Cmp (Pred.Eq, col, v), Algebra.Rename (p, Algebra.Base n)
    when Catalog.indexing_enabled cat -> begin
    match strip_prefix p col with
    | None -> None
    | Some base_col ->
      let rows = Catalog.lookup cat n base_col v in
      Some (Relation.of_rows ~cols:(cols_of cat inner) (Array.of_list rows))
  end
  | _ -> None

let hash_join ?ctrs cat eval_sub pred a b =
  let ra = eval_sub a and rb = eval_sub b in
  ignore cat;
  let conjs = Pred.conjuncts pred in
  let acols = Relation.cols ra and bcols = Relation.cols rb in
  let pick_key = function
    | Pred.CmpCols (Pred.Eq, x, y) ->
      if List.mem x acols && List.mem y bcols then Some (x, y)
      else if List.mem y acols && List.mem x bcols then Some (y, x)
      else None
    | _ -> None
  in
  let rec find_key = function
    | [] -> None
    | c :: rest -> ( match pick_key c with Some k -> Some (c, k) | None -> find_key rest)
  in
  let joined =
    match find_key conjs with
    | Some (used, (ka, kb)) ->
      let pa = Relation.col_pos ra ka and pb = Relation.col_pos rb kb in
      (* Build the hash table on the smaller input and probe with the larger;
         output rows stay (a-row, b-row) whichever side is built. *)
      let build_a = Relation.cardinality ra <= Relation.cardinality rb in
      let build, bpos, probe, ppos =
        if build_a then (ra, pa, rb, pb) else (rb, pb, ra, pa)
      in
      let table = Hashtbl.create (max 16 (Relation.cardinality build)) in
      Relation.iter
        (fun row ->
          let key = row.(bpos) in
          let prev = try Hashtbl.find table key with Not_found -> [] in
          Hashtbl.replace table key (row :: prev))
        build;
      let out = ref [] in
      Relation.iter
        (fun prow ->
          match Hashtbl.find_opt table prow.(ppos) with
          | None -> ()
          | Some matches ->
            List.iter
              (fun brow ->
                let joined =
                  if build_a then Array.append brow prow
                  else Array.append prow brow
                in
                out := joined :: !out)
              matches)
        probe;
      let rel = Relation.of_rows ~cols:(acols @ bcols) (Array.of_list !out) in
      let remaining = List.filter (fun c -> c != used) conjs in
      if remaining = [] then rel else Pred.eval_on rel (Pred.conj remaining)
    | None ->
      let prod = Relation.product ra rb in
      Pred.eval_on prod pred
  in
  count ctrs (fun m -> m.op_join) joined

let optimize_pass = optimize

let eval ?ctrs ?(optimize = true) cat expr =
  let expr = if optimize then optimize_pass cat expr else expr in
  let rec go e =
    match e with
    | Algebra.Base n -> Catalog.find cat n
    | Algebra.Mat r -> r
    | Algebra.Rename (p, inner) -> Relation.rename_prefix (go inner) p
    | Algebra.Select (p, inner) -> begin
      match indexed_select cat p inner with
      | Some rel ->
        bump ctrs (fun m -> m.sel_index);
        count ctrs (fun m -> m.op_select) rel
      | None ->
        let r = go inner in
        bump ctrs (fun m -> m.sel_scan);
        count ctrs (fun m -> m.op_select) (Pred.eval_on r p)
    end
    | Algebra.Project (cs, inner) ->
      count ctrs (fun m -> m.op_project) (Relation.project (go inner) cs)
    | Algebra.Distinct (Algebra.Project (cs, inner)) when optimize ->
      count ctrs (fun m -> m.op_distinct) (distinct_project cs inner)
    | Algebra.Distinct inner ->
      count ctrs (fun m -> m.op_distinct) (Relation.distinct (go inner))
    | Algebra.Product (a, b) ->
      count ctrs (fun m -> m.op_product) (Relation.product (go a) (go b))
    | Algebra.Join (p, a, b) -> hash_join ?ctrs cat go p a b
    | Algebra.Aggregate (a, inner) ->
      count ctrs (fun m -> m.op_aggregate) (aggregate a (go inner))
    | Algebra.GroupBy (keys, a, inner) ->
      count ctrs (fun m -> m.op_groupby) (group_by keys a (go inner))
  (* Set-semantics projection over a Cartesian product factorises:
     δπ_C(A × B) = π_C(δπ_{C∩A}(A) × δπ_{C∩B}(B)), and a factor carrying no
     projected column only contributes an emptiness test.  This keeps the
     distinct result small without ever materialising the full product. *)
  and distinct_project cs e =
    match e with
    | Algebra.Product (a, b) -> begin
      let acols = cols_of cat a in
      let ca = List.filter (fun c -> List.mem c acols) cs in
      let cb = List.filter (fun c -> not (List.mem c ca)) cs in
      match (ca, cb) with
      | [], [] -> Relation.distinct (Relation.project (go e) cs)
      | [], _ ->
        if nonempty a then distinct_project cb b else Relation.empty ~cols:cs
      | _, [] ->
        if nonempty b then distinct_project ca a else Relation.empty ~cols:cs
      | _ ->
        let ra = distinct_project ca a and rb = distinct_project cb b in
        Relation.project (Relation.product ra rb) cs
    end
    | _ -> Relation.distinct (Relation.project (go e) cs)
  (* Emptiness of a product needs no materialisation of the product. *)
  and nonempty e =
    match e with
    | Algebra.Product (a, b) -> nonempty a && nonempty b
    | Algebra.Rename (_, inner) -> nonempty inner
    | Algebra.Base n -> not (Relation.is_empty (Catalog.find cat n))
    | Algebra.Mat r -> not (Relation.is_empty r)
    | _ -> not (Relation.is_empty (go e))
  in
  go expr

let rec nonempty ?ctrs cat e =
  match e with
  | Algebra.Product (a, b) -> nonempty ?ctrs cat a && nonempty ?ctrs cat b
  | Algebra.Rename (_, inner) -> nonempty ?ctrs cat inner
  | Algebra.Base n -> not (Relation.is_empty (Catalog.find cat n))
  | Algebra.Mat r -> not (Relation.is_empty r)
  | _ -> not (Relation.is_empty (eval ?ctrs cat e))
