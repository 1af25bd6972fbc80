type partitioning = {
  mappings : Mapping.t list;
  partition : Mapping.t list list;
  deps : string list;
}

(* Keyed by {!Query.shape}.  An entry is valid only for the mapping list it
   was computed from, compared physically: the entry holds that list, so
   its address cannot be reused by another list while the entry lives. *)
type partitionings = {
  lru : partitioning Urm_util.Lru.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

type t = {
  catalog : Urm_relalg.Catalog.t;
  source : Urm_relalg.Schema.t;
  target : Urm_relalg.Schema.t;
  engine : Urm_relalg.Compile.engine;
  compile_env : Urm_relalg.Compile.env;
  plans : Urm_relalg.Plan_cache.t;
  partitionings : partitionings;
}

let make ?(engine = Urm_relalg.Compile.Vectorized) ~catalog ~source ~target () =
  {
    catalog;
    source;
    target;
    engine;
    compile_env = Urm_relalg.Compile.create_env catalog;
    plans = Urm_relalg.Plan_cache.create ();
    partitionings =
      {
        lru = Urm_util.Lru.create ~capacity:256;
        hits = Atomic.make 0;
        misses = Atomic.make 0;
      };
  }

let engine t = t.engine

(* Rebinding the catalog keeps the compile env, the plan cache and the
   partitioning memo: plans resolve [Base] leaves against the catalog
   passed at execution time, and compiled column layouts only depend on
   schemas, which copy-on-write derivation preserves; partitions and
   unprobed dependency sets read no data at all.  Cardinality statistics
   consulted at compile time keep describing the original instance — join
   orders chosen then remain valid (if increasingly approximate) as the
   data drifts. *)
let with_catalog t catalog = { t with catalog }

let plan_of t e =
  let compile () = Urm_relalg.Compile.compile t.compile_env e in
  (* Mat fingerprints name ephemeral relation ids — one-shot expressions
     (o-sharing e-units, e-MQO rewrites) compile directly, uncached.
     Cacheable expressions key on the canonical fingerprint: conjunct
     arrangement does not change the result rows, so structurally identical
     e-units arriving from different mappings with permuted predicates hit
     the same compiled plan. *)
  if Urm_relalg.Algebra.contains_mat e then compile ()
  else
    Urm_relalg.Plan_cache.find_or_add t.plans
      (Urm_relalg.Algebra.canonical_fingerprint e)
      compile

let eval ?ctrs t e =
  match t.engine with
  | Urm_relalg.Compile.Interpreted -> Urm_relalg.Eval.eval ?ctrs t.catalog e
  | Urm_relalg.Compile.Vectorized ->
    Urm_relalg.Plan.execute ?ctrs t.catalog (plan_of t e)

(* [eval_batches ?ctrs t e] the result header plus a driver that streams
   the result as {!Column.batch}es: compiled plans stream their batch
   pipeline (the fused evaluate-and-accumulate path, no materialised
   relation); the interpreted engine evaluates eagerly and replays the
   relation's memoised columns chunk-wise. *)
let eval_batches ?ctrs t e =
  match t.engine with
  | Urm_relalg.Compile.Vectorized ->
    let plan = plan_of t e in
    ( Urm_relalg.Plan.header plan,
      fun f -> Urm_relalg.Plan.iter_batches ?ctrs t.catalog plan ~f )
  | Urm_relalg.Compile.Interpreted ->
    let r = Urm_relalg.Eval.eval ?ctrs t.catalog e in
    ( Urm_relalg.Relation.cols r,
      fun f ->
        let n = Urm_relalg.Relation.cardinality r in
        if n > 0 then begin
          let vecs = Urm_relalg.Relation.columns r in
          Urm_relalg.Column.iter_chunks n ~f:(fun sel len ->
              f
                {
                  Urm_relalg.Column.vecs;
                  sel;
                  n = len;
                  rows = Some r.Urm_relalg.Relation.rows;
                })
        end )

(* [eval_wbatches ?ctrs t e ~weights] the weight-vector channel: like
   [eval_batches] but every batch is wrapped in {!Column.weighted} carrying
   the producing e-unit's mapping-mass vector, so the factorized executor
   runs the plan once for all the mappings the vector describes.  The
   interpreted fallback wraps the eager batch replay. *)
let eval_wbatches ?ctrs t e ~weights =
  match t.engine with
  | Urm_relalg.Compile.Vectorized ->
    let plan = plan_of t e in
    ( Urm_relalg.Plan.header plan,
      fun f -> Urm_relalg.Plan.iter_wbatches ?ctrs t.catalog plan ~weights ~f )
  | Urm_relalg.Compile.Interpreted ->
    let header, bdrive = eval_batches ?ctrs t e in
    (header, fun f -> bdrive (fun batch -> f { Urm_relalg.Column.batch; weights }))

(* Emptiness without materialising: products short-circuit structurally
   (same shapes as the interpreter's [nonempty]); everything else asks the
   compiled plan, which stops at the first produced row. *)
let rec nonempty ?ctrs t e =
  match t.engine with
  | Urm_relalg.Compile.Interpreted -> Urm_relalg.Eval.nonempty ?ctrs t.catalog e
  | Urm_relalg.Compile.Vectorized -> (
    match e with
    | Urm_relalg.Algebra.Product (a, b) -> nonempty ?ctrs t a && nonempty ?ctrs t b
    | Urm_relalg.Algebra.Rename (_, inner) -> nonempty ?ctrs t inner
    | Urm_relalg.Algebra.Base n ->
      not (Urm_relalg.Relation.is_empty (Urm_relalg.Catalog.find t.catalog n))
    | Urm_relalg.Algebra.Mat r -> not (Urm_relalg.Relation.is_empty r)
    | _ -> Urm_relalg.Plan.nonempty ?ctrs t.catalog (plan_of t e))

let plan_stats t = Urm_relalg.Plan_cache.stats t.plans

(* Computed outside the lock, like a plan: two executors racing on one
   shape both compute it and the later insert wins.  Either entry is exact
   for its own list, so a race wastes work, never serves a wrong
   partition. *)
let partitioning t q ms compute =
  let p = t.partitionings in
  let key = Query.shape q in
  match Urm_util.Lru.find p.lru key with
  | Some e when e.mappings == ms ->
    Atomic.incr p.hits;
    e
  | _ ->
    Atomic.incr p.misses;
    let partition, deps = compute () in
    let e = { mappings = ms; partition; deps } in
    ignore (Urm_util.Lru.add p.lru key e);
    e

let partitioning_stats t =
  (Atomic.get t.partitionings.hits, Atomic.get t.partitionings.misses)
