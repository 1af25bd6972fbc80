open Urm_relalg

type body =
  | Unsatisfiable
  | Trivial
  | Expr of Algebra.t

type t = {
  body : body;
  outputs : (string * string option) list;
  aggregate : Query.agg option;
  grouped : bool;
  factor_rels : string list;
}

let output_labels sq = List.map fst sq.outputs

let column_for ~alias ~source_attr =
  let rel, col = Schema.split_qualified source_attr in
  alias ^ "@" ^ rel ^ "#" ^ col

let prefix_for alias rel = alias ^ "@" ^ rel

let agg_label = function
  | Query.Count -> "count"
  | Query.Sum ta -> "sum(" ^ Query.tattr_to_string ta ^ ")"

let output_header q =
  match q.Query.aggregate with
  | Some a ->
    List.map Query.tattr_to_string q.Query.group_by @ [ agg_label a ]
  | None -> List.map Query.tattr_to_string (Query.output_attrs q)

let cover_of target q m alias =
  Query.needed_attrs target q alias
  |> List.filter_map (fun ta -> Mapping.source_of m (Query.qualified q ta))
  |> List.map (fun s -> fst (Schema.split_qualified s))
  |> List.sort_uniq String.compare

(* The selection-emptiness probe: memoised per (source attribute,
   constant) for the probe's lifetime, answered through the catalog's
   index path ({!Catalog.has_value}) — the access path of the engine's own
   σ[col = const] over a stored relation, so the probe and the plan agree
   on which constants match (no Int/Float coercion). *)
let selection_probe cat =
  let memo = Hashtbl.create 16 in
  fun source_attr v ->
    let key = (source_attr, v) in
    match Hashtbl.find_opt memo key with
    | Some b -> b
    | None ->
      let rel, col = Schema.split_qualified source_attr in
      let b = Catalog.has_value cat rel col v in
      Hashtbl.add memo key b;
      b

let source_query ?(holds = fun _ _ -> true) target q m =
  let source_of ta = Mapping.source_of m (Query.qualified q ta) in
  let col_of ta =
    Option.map (fun s -> column_for ~alias:ta.Query.alias ~source_attr:s) (source_of ta)
  in
  let source_agg =
    match q.Query.aggregate with
    | Some Query.Count -> Some Algebra.Count
    | Some (Query.Sum ta) -> Option.map (fun c -> Algebra.Sum c) (col_of ta)
    | None -> None
  in
  let outputs =
    match q.Query.aggregate with
    | Some a ->
      List.map (fun ta -> (Query.tattr_to_string ta, col_of ta)) q.Query.group_by
      @ [ (agg_label a, Option.map Algebra.output_col source_agg) ]
    | None -> List.map (fun ta -> (Query.tattr_to_string ta, col_of ta)) (Query.output_attrs q)
  in
  let grouped = q.Query.group_by <> [] in
  (* Unreferenced aliases are factored out rather than materialised. *)
  let referenced, unreferenced =
    List.partition
      (fun (alias, _) -> Query.referenced_of_alias q alias <> [])
      q.Query.aliases
  in
  let factor_rels =
    match q.Query.aggregate with
    | Some _ ->
      List.concat_map (fun (alias, _) -> cover_of target q m alias) unreferenced
    | None -> []
  in
  let unsatisfiable =
    List.exists (fun (ta, _) -> source_of ta = None) q.Query.selections
    || List.exists
         (fun (a, b) -> source_of a = None || source_of b = None)
         q.Query.joins
    || (match q.Query.aggregate with
       | Some (Query.Sum ta) -> source_of ta = None
       | Some Query.Count | None -> false)
    (* A selection whose source instance holds no matching row empties the
       whole product, exactly as an unmapped selection attribute does. *)
    || List.exists
         (fun (ta, v) ->
           match source_of ta with Some s -> not (holds s v) | None -> false)
         q.Query.selections
  in
  if unsatisfiable then
    { body = Unsatisfiable; outputs; aggregate = q.Query.aggregate; grouped; factor_rels }
  else begin
    (* One piece per (alias, covering source relation); the cover of an
       alias is the set of relations owning its mapped needed attributes
       (paper §VI-B: minimal source-relation set — minimality is immediate
       because each source attribute belongs to exactly one relation). *)
    let alias_pieces (alias, _) =
      List.map
        (fun r -> Algebra.Rename (prefix_for alias r, Algebra.Base r))
        (cover_of target q m alias)
    in
    let pieces = List.concat_map alias_pieces referenced in
    match pieces with
    | [] -> { body = Trivial; outputs; aggregate = q.Query.aggregate; grouped; factor_rels }
    | first :: rest ->
      let from_expr = List.fold_left (fun acc p -> Algebra.Product (acc, p)) first rest in
      let must_col ta =
        match col_of ta with
        | Some c -> c
        | None -> assert false (* guarded by [unsatisfiable] *)
      in
      let sel_preds =
        List.map (fun (ta, v) -> Pred.eq (must_col ta) v) q.Query.selections
      in
      let join_preds =
        List.map (fun (a, b) -> Pred.eq_cols (must_col a) (must_col b)) q.Query.joins
      in
      let pred = Pred.conj (sel_preds @ join_preds) in
      let filtered =
        match pred with Pred.True -> from_expr | p -> Algebra.Select (p, from_expr)
      in
      let expr =
        match source_agg with
        | Some a when grouped ->
          let keys =
            List.sort_uniq String.compare (List.filter_map col_of q.Query.group_by)
          in
          Algebra.GroupBy (keys, a, filtered)
        | Some a -> Algebra.Aggregate (a, filtered)
        | None ->
          let proj_cols =
            List.sort_uniq String.compare (List.filter_map snd outputs)
          in
          if proj_cols = [] then filtered
          else
            (* Answers are sets per mapping; Distinct lets the engine
               factorise the projection through Cartesian products. *)
            Algebra.Distinct (Algebra.Project (proj_cols, filtered))
      in
      { body = Expr expr; outputs; aggregate = q.Query.aggregate; grouped; factor_rels }
  end

let key sq =
  let body_part =
    match sq.body with
    | Unsatisfiable -> "<unsat>"
    | Trivial -> "<trivial>"
    | Expr e -> Algebra.fingerprint e
  in
  let outputs_part =
    String.concat ";"
      (List.map
         (fun (label, col) -> label ^ "=" ^ Option.value ~default:"⊥" col)
         sq.outputs)
  in
  body_part ^ "||" ^ outputs_part ^ "||" ^ String.concat "," sq.factor_rels

let factor cat sq =
  List.fold_left
    (fun acc r -> acc * Relation.cardinality (Catalog.find cat r))
    1 sq.factor_rels

let scale_value factor v =
  match v with
  | Value.Int c -> Value.Int (c * factor)
  | Value.Float s -> Value.Float (s *. float_of_int factor)
  | Value.Null -> Value.Null
  | Value.Str _ -> invalid_arg "Reformulate.scale_value: string aggregate"

let null_answer_into acc sq ~factor p =
  match (sq.aggregate, sq.grouped, sq.body) with
  (* A grouped aggregate over nothing has no groups: the answer is θ. *)
  | Some _, true, _ -> Answer.add_null acc p
  | Some Query.Count, false, Trivial -> Answer.add acc [| Value.Int factor |] p
  | Some Query.Count, false, _ -> Answer.add acc [| Value.Int 0 |] p
  | Some (Query.Sum _), false, _ -> Answer.add acc [| Value.Null |] p
  | None, _, _ -> Answer.add_null acc p

(* Iterate the target tuples of a plain (non-aggregate) evaluated result:
   the source query ends in Distinct over exactly the mapped output columns
   and unmapped outputs are a constant Null, so rows map one-to-one onto
   distinct target tuples (a completely unmapped output list collapses to a
   single all-Null tuple).  Does nothing on an empty result (θ). *)
let iter_plain_tuples sq rel ~f =
  if not (Relation.is_empty rel) then begin
    let getters =
      Array.of_list
        (List.map (fun (_, c) -> Option.map (Relation.col_pos rel) c) sq.outputs)
    in
    let n = Array.length getters in
    let identity =
      n = Relation.arity rel
      &&
      let rec go i = i >= n || (getters.(i) = Some i && go (i + 1)) in
      go 0
    in
    if identity then Relation.iter f rel
    else if Array.for_all (( = ) None) getters then
      f (Array.make n Value.Null)
    else
      Relation.iter
        (fun row ->
          f
            (Array.map
               (function Some i -> row.(i) | None -> Value.Null)
               getters))
        rel
  end

let aggregate_tuple sq ~factor rel =
  match sq.outputs with
  | [ (_, Some col) ] -> [| scale_value factor (Relation.value rel 0 col) |]
  | _ -> invalid_arg "Reformulate: bad aggregate outputs"

(* Grouped aggregate result rows: group columns (Null for unmapped grouping
   attributes), then the aggregate value scaled by the cardinality factor.
   Rows are distinct by construction (GroupBy keys). *)
let iter_grouped_tuples sq ~factor rel ~f =
  let getters =
    Array.of_list
      (List.map (fun (_, c) -> Option.map (Relation.col_pos rel) c) sq.outputs)
  in
  let n = Array.length getters in
  Relation.iter
    (fun row ->
      let tuple =
        Array.init n (fun i ->
            let v =
              match getters.(i) with Some idx -> row.(idx) | None -> Value.Null
            in
            if i = n - 1 then scale_value factor v else v)
      in
      f tuple)
    rel

let answers_into acc sq ~factor rel p =
  match (sq.aggregate, sq.grouped) with
  | Some _, true ->
    if Relation.is_empty rel then Answer.add_null acc p
    else iter_grouped_tuples sq ~factor rel ~f:(fun tuple -> Answer.add acc tuple p)
  | Some _, false -> Answer.add acc (aggregate_tuple sq ~factor rel) p
  | None, _ ->
    if Relation.is_empty rel then Answer.add_null acc p
    else iter_plain_tuples sq rel ~f:(fun tuple -> Answer.add acc tuple p)

(* A recorded accumulation: the answer-bucket ids one evaluation of a
   reformulation touched and the emitted target-tuple stream, both in
   emission order.  Units sharing a {!key} produce identical target tuples,
   so a later unit replays the ids with its own mass instead of
   re-evaluating — same buckets, same per-bucket addition order, hence
   bit-identical to a fresh evaluation.  The tuples serve the factorized
   executor's cross-unit result-stream memo (see
   [record_weighted_answers_into]). *)
type recording = { ids : int array; null : bool; tuples : Value.t array array }

(* Growable array buffer: record paths push one entry per emitted tuple,
   so consing a list and reversing would double the allocation on the
   hottest loop in the system. *)
let push buf count x =
  let n = Array.length !buf in
  if !count = n then begin
    let bigger = Array.make (2 * n) !buf.(0) in
    Array.blit !buf 0 bigger 0 n;
    buf := bigger
  end;
  !buf.(!count) <- x;
  incr count

let replay_answers_into acc r p =
  let ids = r.ids in
  for i = 0 to Array.length ids - 1 do
    Answer.bump acc ids.(i) p
  done;
  if r.null then Answer.add_null acc p

(* The factorized executor's recording: one pass over the weight-vector
   channel ({!Urm.Ctx.eval_wbatches}) that accumulates the e-unit's whole
   collapsed mapping mass and records the emitted stream — while
   simultaneously comparing that stream, tuple by tuple, against the
   [candidates] recorded by previously executed units.  Distinct
   reformulations frequently produce identical result streams (they differ
   in source attributes the target projection discards); when a candidate's
   stream is reproduced exactly — same tuples, same order, same length,
   same θ emission — the unit replays the candidate's bucket ids instead of
   paying a hash probe per tuple, and shares the candidate's recording.

   Bit-identity: bucket additions are deferred until the drive completes,
   which preserves their relative (emission) order, and a full stream match
   means the replayed additions are exactly the additions a fresh
   accumulation would have made — same buckets, same order, no hashing
   involved in the match (structural tuple equality only). *)
let record_weighted_answers_into acc sq ~factor (header, wdrive) ~weights
    ~candidates =
  (* Collapse the weight vector once per unit, not per emitted tuple: the
     left-to-right fold is the same float the oracle's incremental
     per-mapping sum reaches, and hoisting it turns the accumulation from
     O(h · tuples) flops into O(h + tuples). *)
  let mass = Answer.vec_mass weights in
  let cands = Array.of_list candidates in
  let nc = Array.length cands in
  let live = Array.make nc true in
  let nlive = ref nc in
  (* While any candidate is live the emitted tuples are compared and
     dropped, not buffered — a full match never needs them, and the common
     prefix can always be recovered from a candidate's own recording.  Only
     once every candidate has died (or none existed) do tuples go to [buf]:
     on the transition, the shared prefix is backfilled from the last
     candidate standing, whose stream is identical on the rows seen so
     far. *)
  let k = ref 0 in
  let buffering = ref (nc = 0) in
  let buf = ref (Array.make 256 [||]) and count = ref 0 and null = ref false in
  let ensure n =
    if n > Array.length !buf then begin
      let cap = ref (Array.length !buf) in
      while !cap < n do
        cap := 2 * !cap
      done;
      let bigger = Array.make !cap [||] in
      Array.blit !buf 0 bigger 0 !count;
      buf := bigger
    end
  in
  let emit tuple =
    if !buffering then push buf count tuple
    else begin
      let died_now = ref (-1) in
      for c = 0 to nc - 1 do
        if
          live.(c)
          && (!k >= Array.length cands.(c).tuples
             || not (Answer.tuple_equal tuple cands.(c).tuples.(!k)))
        then begin
          live.(c) <- false;
          decr nlive;
          died_now := c
        end
      done;
      if !nlive = 0 then begin
        buffering := true;
        ensure (!k + 1);
        Array.blit cands.(!died_now).tuples 0 !buf 0 !k;
        count := !k;
        push buf count tuple
      end
    end;
    incr k
  in
  (* Every target tuple of the result stream flows through [emit]; θ sets
     [null].  Must agree with {!answers_into} over the materialised result;
     per-mapping tuples are distinct by construction (see
     {!iter_plain_tuples}), so the within-mapping accumulation order cannot
     affect the summed probabilities. *)
  let pos c =
    let rec go i = function
      | [] -> raise Not_found
      | x :: _ when String.equal x c -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 header
  in
  let idxs () =
    Array.of_list (List.map (fun (_, c) -> Option.map pos c) sq.outputs)
  in
  (match (sq.aggregate, sq.grouped) with
  | Some _, false -> (
    (* Scalar aggregate: the expression yields exactly one row. *)
    let seen = ref None in
    wdrive (fun { Column.batch = b; _ } ->
        if b.Column.n > 0 then seen := Some (Column.row b (b.Column.n - 1)));
    match (!seen, sq.outputs) with
    | Some row, [ (_, Some col) ] -> emit [| scale_value factor row.(pos col) |]
    | None, _ -> null := true
    | _ -> invalid_arg "Reformulate: bad aggregate outputs")
  | Some _, true ->
    let idxs = idxs () in
    let n = Array.length idxs in
    let any = ref false in
    wdrive (fun { Column.batch = b; _ } ->
        let getters =
          Array.map (Option.map (fun i -> Column.getter b.Column.vecs.(i))) idxs
        in
        for r = 0 to b.Column.n - 1 do
          any := true;
          let i = b.Column.sel.(r) in
          emit
            (Array.init n (fun j ->
                 let v =
                   match getters.(j) with Some get -> get i | None -> Value.Null
                 in
                 if j = n - 1 then scale_value factor v else v))
        done);
    if not !any then null := true
  | None, _ ->
    let idxs = idxs () in
    let n = Array.length idxs in
    let any = ref false in
    let identity =
      n = List.length header
      &&
      let rec go i = i >= n || (idxs.(i) = Some i && go (i + 1)) in
      go 0
    in
    if identity then
      wdrive (fun { Column.batch = b; _ } ->
          for r = 0 to b.Column.n - 1 do
            any := true;
            emit (Column.row b r)
          done)
    else if Array.for_all (( = ) None) idxs then begin
      wdrive (fun { Column.batch = b; _ } ->
          if b.Column.n > 0 then any := true);
      if !any then emit (Array.make n Value.Null)
    end
    else
      wdrive (fun { Column.batch = b; _ } ->
          let getters =
            Array.map (Option.map (fun i -> Column.getter b.Column.vecs.(i))) idxs
          in
          for r = 0 to b.Column.n - 1 do
            any := true;
            let i = b.Column.sel.(r) in
            emit
              (Array.map
                 (function Some get -> get i | None -> Value.Null)
                 getters)
          done);
    if not !any then null := true);
  (* θ only ever fires on an empty stream, so adding it after the loop is
     the same accumulation order as adding it at emission time. *)
  let matched = ref None in
  for c = nc - 1 downto 0 do
    if
      live.(c)
      && Array.length cands.(c).tuples = !k
      && cands.(c).null = !null
    then matched := Some cands.(c)
  done;
  match !matched with
  | Some r ->
    (* A full match has the candidate's θ flag, so this is its replay. *)
    replay_answers_into acc r mass;
    (r, true)
  | None ->
    let tuples =
      if !buffering then Array.sub !buf 0 !count
      else begin
        (* Candidates outlived the stream (it is a strict prefix of
           theirs): recover the emitted rows from any survivor. *)
        let src = ref [||] in
        for c = nc - 1 downto 0 do
          if live.(c) then src := cands.(c).tuples
        done;
        Array.sub !src 0 !k
      end
    in
    Answer.reserve acc (Array.length tuples);
    let ids = Array.map (fun tu -> Answer.add_id acc tu mass) tuples in
    if !null then Answer.add_null acc mass;
    ({ ids; null = !null; tuples }, false)

let result_tuples sq ~factor rel =
  match (rel, sq.aggregate) with
  | Some rel, Some _ when sq.grouped ->
    let out = ref [] in
    iter_grouped_tuples sq ~factor rel ~f:(fun t -> out := t :: !out);
    List.rev !out
  | Some rel, Some _ -> [ aggregate_tuple sq ~factor rel ]
  | Some rel, None ->
    let out = ref [] in
    iter_plain_tuples sq rel ~f:(fun t -> out := t :: !out);
    List.rev !out
  | None, Some _ when sq.grouped -> []
  | None, Some Query.Count ->
    [ [| Value.Int (match sq.body with Trivial -> factor | _ -> 0) |] ]
  | None, Some (Query.Sum _) -> [ [| Value.Null |] ]
  | None, None -> []
