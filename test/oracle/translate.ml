open Urm
open Urm_relalg

let relation (ctx : Ctx.t) m target_rel_name =
  let rel = Schema.find_rel ctx.target target_rel_name in
  let attrs = List.map (fun a -> a.Schema.aname) rel.Schema.attrs in
  let mapped =
    List.filter_map
      (fun a ->
        Option.map
          (fun src -> (a, src))
          (Mapping.source_of m (Schema.qualify target_rel_name a)))
      attrs
  in
  if mapped = [] then Relation.empty ~cols:attrs
  else begin
    (* Cover product with alias-style renames, exactly as reformulation
       instantiates a target alias. *)
    let alias = target_rel_name in
    let covers =
      List.sort_uniq String.compare
        (List.map (fun (_, src) -> fst (Schema.split_qualified src)) mapped)
    in
    let from_expr =
      match
        List.map
          (fun r -> Algebra.Rename (alias ^ "@" ^ r, Algebra.Base r))
          covers
      with
      | [] -> assert false
      | first :: rest ->
        List.fold_left (fun acc p -> Algebra.Product (acc, p)) first rest
    in
    let col_of src = Reformulate.column_for ~alias ~source_attr:src in
    let proj_cols =
      List.sort_uniq String.compare (List.map (fun (_, src) -> col_of src) mapped)
    in
    let result =
      Ctx.eval ctx
        (Algebra.Distinct (Algebra.Project (proj_cols, from_expr)))
    in
    let getters =
      List.map
        (fun a ->
          match List.assoc_opt a mapped with
          | Some src -> Some (Relation.col_pos result (col_of src))
          | None -> None)
        attrs
    in
    let rows =
      Relation.fold
        (fun acc row ->
          Array.of_list
            (List.map (function Some i -> row.(i) | None -> Value.Null) getters)
          :: acc)
        [] result
    in
    Relation.create ~cols:attrs (List.rev rows)
  end

let catalog (ctx : Ctx.t) m =
  let out = Catalog.create () in
  List.iter
    (fun (rel : Schema.rel) ->
      Catalog.add out rel.Schema.rname (relation ctx m rel.Schema.rname))
    ctx.target.Schema.rels;
  out

(* One possible world's answer to a plain target query: the product of the
   query's aliases, each [Rename (alias, Base rel)] over the world's target
   instance, then the selections and joins, then δπ of the output
   attributes.

   The world's rule for comparisons: an attribute the mapping leaves
   unmapped is Null in the world, and Null equals nothing, itself
   included, so a selection or join on it keeps no row.  [Eval]'s
   predicates treat Null = Null as true, so the comparisons are written
   out here rather than routed through [Pred]. *)
let world_tuples (ctx : Ctx.t) (q : Query.t) m =
  if q.Query.aggregate <> None then
    invalid_arg "Translate.world_tuples: aggregate queries have no world rule here";
  let from =
    match
      List.map (fun (alias, rel) -> Algebra.Rename (alias, Algebra.Base rel)) q.Query.aliases
    with
    | [] -> assert false (* Query.make rejects an empty alias list *)
    | first :: rest -> List.fold_left (fun acc p -> Algebra.Product (acc, p)) first rest
  in
  let product = Eval.eval (catalog ctx m) from in
  let pos (ta : Query.tattr) = Relation.col_pos product (ta.Query.alias ^ "#" ^ ta.Query.attr) in
  let eq a b = (not (Value.is_null a)) && Value.equal a b in
  let selections = List.map (fun (ta, v) -> (pos ta, v)) q.Query.selections in
  let joins = List.map (fun (a, b) -> (pos a, pos b)) q.Query.joins in
  let outputs = Array.of_list (List.map pos (Query.output_attrs q)) in
  let seen = Hashtbl.create 16 in
  Relation.iter
    (fun row ->
      if
        List.for_all (fun (i, v) -> eq row.(i) v) selections
        && List.for_all (fun (i, j) -> eq row.(i) row.(j)) joins
      then Hashtbl.replace seen (Array.map (fun i -> row.(i)) outputs) ())
    product;
  Hashtbl.fold (fun t () acc -> t :: acc) seen []

let answer ctx q ms =
  let acc = Answer.create (List.map Query.tattr_to_string (Query.output_attrs q)) in
  List.iter
    (fun m ->
      match world_tuples ctx q m with
      | [] -> Answer.add_null acc m.Mapping.prob
      | tuples -> List.iter (fun t -> Answer.add acc t m.Mapping.prob) tuples)
    ms;
  acc
