open Urm_relalg
module Metrics = Urm_obs.Metrics

(* One distinct reformulation shape: every mapping whose source query has
   the same [Reformulate.key] contributes the same target tuples, so the
   shape carries the exact probability mass of its member mappings
   (exactly e-basic's grouping, kept live instead of recomputed). *)
type shape = {
  key : string;
  sq : Urm.Reformulate.t;
  expr_rels : string list;  (* stored relations of the body; [] for null bodies *)
  mutable factor : int;
  mutable members : (int * float) list;  (* member mapping id, Pr(m) *)
  mutable tuples : (Value.t array, unit) Hashtbl.t;  (* empty = θ *)
}

type t = {
  query : Urm.Query.t;
  answer : Urm.Answer.t;
  shapes : (string, shape) Hashtbl.t;
  mutable order : string list;  (* shape keys, first-appearance order *)
  mutable epoch : int;
}

let answer t = t.answer
let epoch t = t.epoch
let shape_count t = Hashtbl.length t.shapes
let query t = t.query

(* ------------------------------------------------------------------ *)

let eval_shape (ctx : Urm.Ctx.t) sq =
  let factor = Urm.Reformulate.factor ctx.Urm.Ctx.catalog sq in
  let tuples =
    match sq.Urm.Reformulate.body with
    | Urm.Reformulate.Expr e ->
      Urm.Reformulate.result_tuples sq ~factor (Some (Urm.Ctx.eval ctx e))
    | Urm.Reformulate.Unsatisfiable | Urm.Reformulate.Trivial ->
      Urm.Reformulate.result_tuples sq ~factor None
  in
  let tbl = Hashtbl.create (max 16 (List.length tuples)) in
  List.iter (fun tu -> Hashtbl.replace tbl tu ()) tuples;
  (factor, tbl)

let shape_key (ctx : Urm.Ctx.t) q m =
  let sq = Urm.Reformulate.source_query ctx.Urm.Ctx.target q m in
  (Urm.Reformulate.key sq, sq)

(* The shape's weight: the exact Σ Pr(m) over its members, as
   {!Urm.Answer.mass} components.  Every bucket then holds the exact sum
   a fresh evaluation gives it, and a retraction — the weight negated —
   returns it to exactly zero. *)
let weight s = Urm.Answer.mass (Array.of_list (List.map snd s.members))
let neg = List.map Float.neg

(* Add [mass] to every tuple the shape currently produces (θ when it
   produces none). *)
let patch_shape answer s mass =
  if Hashtbl.length s.tuples = 0 then List.iter (Urm.Answer.add_null answer) mass
  else Hashtbl.iter (fun tu () -> Urm.Answer.add_exact answer tu mass) s.tuples

(* Drop the buckets that sum to exactly 0 — retracted tuples — but keep
   those a zero-weight shape still yields: a fresh evaluation gives every
   tuple some mapping yields a bucket, at probability 0 if need be.
   Weights are non-negative, so a zero bucket's shapes all weigh 0. *)
let compact t =
  Urm.Answer.compact t.answer;
  Hashtbl.iter (fun _ s -> if weight s = [] then patch_shape t.answer s []) t.shapes

(* [members] all reformulate to [sq]: they join its shape, which is
   evaluated on first appearance. *)
let add_members t (ctx : Urm.Ctx.t) sq members =
  let k = Urm.Reformulate.key sq in
  let s =
    match Hashtbl.find_opt t.shapes k with
    | Some s -> s
    | None ->
      let factor, tuples = eval_shape ctx sq in
      let expr_rels = Urm.Reformulate.body_relations sq in
      let s = { key = k; sq; expr_rels; factor; members = []; tuples } in
      Hashtbl.replace t.shapes k s;
      t.order <- k :: t.order;
      s
  in
  List.iter
    (fun m -> s.members <- (m.Urm.Mapping.id, m.Urm.Mapping.prob) :: s.members)
    members;
  s

let add_member t (ctx : Urm.Ctx.t) m =
  let sq = Urm.Reformulate.source_query ctx.Urm.Ctx.target t.query m in
  add_members t ctx sq [ m ]

(* One reformulation per q-sharing partition: every member of a partition
   has the representative's shape ({!Urm.Ptree.representatives}, over the
   context's memoised partition). *)
let build (snap : Vcatalog.snapshot) q =
  let t =
    {
      query = q;
      answer = Urm.Answer.create (Urm.Reformulate.output_header q);
      shapes = Hashtbl.create 16;
      order = [];
      epoch = snap.epoch;
    }
  in
  List.iter
    (fun (sq, members) -> ignore (add_members t snap.ctx sq members))
    (Urm.Ptree.representatives snap.ctx q snap.mappings);
  t.order <- List.rev t.order;
  List.iter (fun k -> let s = Hashtbl.find t.shapes k in patch_shape t.answer s (weight s)) t.order;
  compact t;
  t

(* ------------------------------------------------------------------ *)
(* Delta application *)

let inter_nonempty xs tbl = List.exists (Hashtbl.mem tbl) xs

(* Insert deltas as row-array suffixes: commits append, so the rows beyond
   the pre-commit cardinality are exactly this batch's inserts. *)
let suffix_deltas (pre : Vcatalog.snapshot) (post : Vcatalog.snapshot) touched =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun rel ->
      let old_r = Catalog.find pre.ctx.Urm.Ctx.catalog rel in
      let new_r = Catalog.find post.ctx.Urm.Ctx.catalog rel in
      let n0 = Relation.cardinality old_r in
      let rows =
        Array.sub new_r.Relation.rows n0 (Relation.cardinality new_r - n0)
      in
      Hashtbl.replace tbl rel (Relation.of_rows ~cols:(Relation.cols new_r) rows))
    touched;
  tbl

let reeval_shape t (post : Vcatalog.snapshot) s =
  let factor, tuples = eval_shape post.ctx s.sq in
  let was_empty = Hashtbl.length s.tuples = 0 in
  let now_empty = Hashtbl.length tuples = 0 in
  let w = weight s in
  Hashtbl.iter
    (fun tu () ->
      if not (Hashtbl.mem s.tuples tu) then Urm.Answer.add_exact t.answer tu w)
    tuples;
  Hashtbl.iter
    (fun tu () ->
      if not (Hashtbl.mem tuples tu) then Urm.Answer.add_exact t.answer tu (neg w))
    s.tuples;
  if was_empty && not now_empty then List.iter (Urm.Answer.add_null t.answer) (neg w);
  if (not was_empty) && now_empty then List.iter (Urm.Answer.add_null t.answer) w;
  s.tuples <- tuples;
  s.factor <- factor

let delta_shape t (pre : Vcatalog.snapshot) (post : Vcatalog.snapshot) deltas s =
  match s.sq.Urm.Reformulate.body with
  | Urm.Reformulate.Expr e ->
    let old_of n = Catalog.find pre.ctx.Urm.Ctx.catalog n in
    let delta_of n = Hashtbl.find_opt deltas n in
    let candidates =
      Delta.candidates post.ctx s.sq ~factor:s.factor ~old_of ~delta_of e
    in
    let was_empty = Hashtbl.length s.tuples = 0 in
    let w = weight s in
    let added = ref 0 in
    List.iter
      (fun tu ->
        if not (Hashtbl.mem s.tuples tu) then begin
          Hashtbl.replace s.tuples tu ();
          Urm.Answer.add_exact t.answer tu w;
          incr added
        end)
      candidates;
    if was_empty && !added > 0 then List.iter (Urm.Answer.add_null t.answer) (neg w)
  | Urm.Reformulate.Unsatisfiable | Urm.Reformulate.Trivial -> assert false

let remove_shape t k =
  Hashtbl.remove t.shapes k;
  t.order <- List.filter (fun k' -> not (String.equal k' k)) t.order

let apply ?(metrics = Metrics.global) t (e : Vcatalog.entry) =
  if e.Vcatalog.pre.epoch <> t.epoch then
    invalid_arg
      (Printf.sprintf "State.apply: state at epoch %d, entry starts at %d" t.epoch
         e.Vcatalog.pre.epoch);
  let m = Metrics.scope metrics "incr" in
  let c_delta = Metrics.counter m "shapes.delta" in
  let c_reeval = Metrics.counter m "shapes.reeval" in
  let c_skipped = Metrics.counter m "shapes.skipped" in
  let pre = e.Vcatalog.pre and post = e.Vcatalog.post and batch = e.Vcatalog.batch in
  (* Data phase: patch every shape whose body or aggregate factor reads a
     touched relation; untouched shapes cost nothing. *)
  let touched = Mutation.touched_relations batch in
  if touched <> [] then begin
    let touched_tbl = Hashtbl.create 4 in
    List.iter (fun r -> Hashtbl.replace touched_tbl r ()) touched;
    let monotone = not (Mutation.has_deletes batch) in
    let deltas = if monotone then suffix_deltas pre post touched else Hashtbl.create 0 in
    List.iter
      (fun k ->
        let s = Hashtbl.find t.shapes k in
        let body_dep = inter_nonempty s.expr_rels touched_tbl in
        let is_aggregate = Option.is_some s.sq.Urm.Reformulate.aggregate in
        let factor_dep =
          is_aggregate && inter_nonempty s.sq.Urm.Reformulate.factor_rels touched_tbl
        in
        if not (body_dep || factor_dep) then Metrics.incr c_skipped
        else if monotone && (not is_aggregate) && body_dep then begin
          delta_shape t pre post deltas s;
          Metrics.incr c_delta
        end
        else begin
          reeval_shape t post s;
          Metrics.incr c_reeval
        end)
      t.order
  end;
  (* Mapping phase: weights patch in place; pruned-empty shapes drop out;
     added mappings either join an existing shape or evaluate a new one
     over the post-commit snapshot. *)
  let mappings = ref pre.mappings in
  List.iter
    (fun mu ->
      match mu with
      | Mutation.Insert _ | Mutation.Delete _ -> ()
      | Mutation.Reweight { mapping; prob } ->
        let mp = List.find (fun mp -> mp.Urm.Mapping.id = mapping) !mappings in
        let k, _ = shape_key post.ctx t.query mp in
        let s = Hashtbl.find t.shapes k in
        patch_shape t.answer s [ -.mp.Urm.Mapping.prob ];
        patch_shape t.answer s [ prob ];
        s.members <-
          List.map (fun (id, p) -> (id, if id = mapping then prob else p)) s.members;
        mappings :=
          List.map
            (fun mp ->
              if mp.Urm.Mapping.id = mapping then Urm.Mapping.with_prob mp prob
              else mp)
            !mappings
      | Mutation.Prune { mapping } ->
        let mp = List.find (fun mp -> mp.Urm.Mapping.id = mapping) !mappings in
        let k, _ = shape_key post.ctx t.query mp in
        let s = Hashtbl.find t.shapes k in
        patch_shape t.answer s [ -.mp.Urm.Mapping.prob ];
        s.members <- List.filter (fun (id, _) -> id <> mapping) s.members;
        if s.members = [] then remove_shape t k;
        mappings := List.filter (fun mp -> mp.Urm.Mapping.id <> mapping) !mappings
      | Mutation.Add_mapping { id = Some id; pairs; prob; score } ->
        let mp = Urm.Mapping.make ~id ~prob ~score pairs in
        let s = add_member t post.ctx mp in
        patch_shape t.answer s [ prob ];
        mappings := !mappings @ [ mp ]
      | Mutation.Add_mapping { id = None; _ } ->
        invalid_arg "State.apply: unresolved add-mapping (commit the batch first)")
    batch;
  compact t;
  t.epoch <- post.epoch

let catch_up ?metrics vcat t =
  let head = Vcatalog.head vcat in
  if head.Vcatalog.epoch = t.epoch then (t, `Current)
  else
    match Vcatalog.entries_since vcat t.epoch with
    | Some entries ->
      List.iter (apply ?metrics t) entries;
      (t, `Patched)
    | None -> (build head t.query, `Rebuilt)

(* ------------------------------------------------------------------ *)

(* The stored relations a query can read through any mapping of the
   snapshot — reformulation only, no evaluation, in first-seen order.
   This is what the service keys selective answer-cache invalidation on.
   {!Urm.Ptree.shared} computes it once per query shape and mapping list,
   from one unprobed reformulation per q-sharing partition. *)
let query_deps (snap : Vcatalog.snapshot) q =
  (Urm.Ptree.shared snap.Vcatalog.ctx q snap.Vcatalog.mappings).Urm.Ctx.deps
