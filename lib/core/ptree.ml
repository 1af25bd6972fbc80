(* A node at level k branches on the source attribute assigned to the k-th
   partition attribute; leaves hold buckets.  Buckets preserve insertion
   order so partitioning is deterministic. *)
type node = {
  edges : (string, node) Hashtbl.t;
  mutable bucket : Mapping.t list;  (* reverse insertion order, leaves only *)
}

let fresh_node () = { edges = Hashtbl.create 4; bucket = [] }

let label_of m target_attr =
  match Mapping.source_of m target_attr with Some s -> s | None -> "⊥"

(* The paper's recursive [put]: descend one level per partition attribute,
   creating edges as needed, and deposit the mapping in the leaf bucket.
   Levels are label functions (see [levels]).  A leaf that receives its
   first mapping is a new partition: [on_new] sees it once, so partitions
   can be listed in the order their first members arrived. *)
let rec put ~on_new node m = function
  | [] ->
    if node.bucket = [] then on_new node;
    node.bucket <- m :: node.bucket
  | level :: rest ->
    let label = level m in
    let child =
      match Hashtbl.find_opt node.edges label with
      | Some c -> c
      | None ->
        let c = fresh_node () in
        Hashtbl.add node.edges label c;
        c
    in
    put ~on_new child m rest

(* One tree level per referenced target attribute (labelled by its source
   attribute under the mapping), plus — for aggregate queries — one level
   per unreferenced alias, labelled by the alias's source-relation cover:
   that cover is all an unreferenced alias contributes to the source query
   (its cardinality factor), so labelling a whole level with it avoids
   splitting partitions over correspondences that cannot change the
   answer. *)
let levels target q =
  let attr_levels =
    Query.referenced_attrs q
    |> List.map (Query.qualified q)
    |> List.sort_uniq String.compare
    |> List.map (fun qattr -> fun m -> label_of m qattr)
  in
  let cover_levels =
    match q.Query.aggregate with
    | None -> []
    | Some _ ->
      List.filter_map
        (fun (alias, _) ->
          if Query.referenced_of_alias q alias <> [] then None
          else
            let qattrs =
              List.map (Query.qualified q) (Query.needed_attrs target q alias)
            in
            Some
              (fun m ->
                List.filter_map (Mapping.source_of m) qattrs
                |> List.map (fun s ->
                       fst (Urm_relalg.Schema.split_qualified s))
                |> List.sort_uniq String.compare
                |> String.concat ","))
        q.Query.aliases
  in
  attr_levels @ cover_levels

(* Partitions in first-insertion order — the order of their first members
   in [ms] — not the trie's depth-first order: the two differ whenever a
   later level splits a subtree after another subtree was opened, and
   callers that merge partitions by reformulation key rely on this order
   being the per-mapping first-seen order. *)
let partition target q ms =
  let lvls = levels target q in
  let root = fresh_node () in
  let leaves = ref [] in
  List.iter (fun m -> put ~on_new:(fun n -> leaves := n :: !leaves) root m lvls) ms;
  List.rev_map (fun n -> List.rev n.bucket) !leaves

let reformulate target q partition =
  List.map
    (fun members ->
      (Reformulate.source_query target q (List.hd members), members))
    partition

(* Every representative's body relations and [factor_rels], first-seen
   order: the relations the query reads through any member mapping. *)
let dependencies reps =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let note r =
    if not (Hashtbl.mem seen r) then begin
      Hashtbl.add seen r ();
      out := r :: !out
    end
  in
  List.iter
    (fun ((sq : Reformulate.t), _) ->
      List.iter note (Reformulate.body_relations sq);
      List.iter note sq.factor_rels)
    reps;
  List.rev !out

(* The memo entry, with the representatives a miss reformulated for its
   dependency set ([None] on a hit): they are [q]'s own, constants
   included, so a caller that needs them reuses them. *)
let lookup (ctx : Ctx.t) q ms =
  let fresh = ref None in
  let e =
    Ctx.partitioning ctx q ms (fun () ->
        let partition = partition ctx.target q ms in
        let reps = reformulate ctx.target q partition in
        fresh := Some reps;
        (partition, dependencies reps))
  in
  (e, !fresh)

let shared ctx q ms = fst (lookup ctx q ms)

let representatives (ctx : Ctx.t) q ms =
  match lookup ctx q ms with
  | _, Some reps -> reps
  | e, None -> reformulate ctx.target q e.Ctx.partition

let partition_naive target q ms =
  let lvls = levels target q in
  let key m = String.concat "|" (List.map (fun label -> label m) lvls) in
  let groups = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun m ->
      let k = key m in
      match Hashtbl.find_opt groups k with
      | Some l -> l := m :: !l
      | None ->
        Hashtbl.add groups k (ref [ m ]);
        order := k :: !order)
    ms;
  List.rev_map (fun k -> List.rev !(Hashtbl.find groups k)) !order

let represent partitions =
  List.map
    (fun partition ->
      match partition with
      | [] -> invalid_arg "Ptree.represent: empty partition"
      | first :: _ -> Mapping.with_prob first (Mapping.total_prob partition))
    partitions

let partition_by_labels key ms =
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun m ->
      let k = key m in
      match Hashtbl.find_opt groups k with
      | Some l -> l := m :: !l
      | None ->
        Hashtbl.add groups k (ref [ m ]);
        order := k :: !order)
    ms;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find groups k))) !order
