(* Physical query plans.

   A plan is a tree of push-based closures compiled once by {!Compile} and
   executed many times.  Every operator pushes {!Column.batch}es — shared
   typed column vectors plus a selection vector — over pre-resolved integer
   column positions: selections narrow the selection vector in a tight loop
   over unboxed data and projections remap the vector array, neither
   copying rows.  Pipeline breakers that build rows (hash joins, distinct,
   group-by) emit through {!Column.batching_sink}.

   Rows come out in a fixed order per plan, so float accumulations
   downstream (answer probabilities, SUM/AVG) are deterministic; the
   differential suites check them against the interpreted evaluator.

   Every operator also carries a short-circuiting emptiness [check] that
   stops at the first qualifying row rather than the first flushed batch:
   filters and hash-join probes test rows one at a time as their input
   batches arrive, and the remaining operators answer from their inputs'
   checks.

   Pipeline breakers (hash-join builds, nested-loop inner sides, distinct,
   group-by) buffer rows in structures local to one execution — a compiled
   plan itself is immutable, so several domains may execute the same plan
   concurrently.

   Base relations are parameters: a pipe resolves [Base] leaves through the
   catalog at execution time, which keeps plans valid across executions and
   lets an index probe honour {!Catalog.set_indexing} dynamically, exactly
   like the interpreted evaluator. *)

type env = { cat : Catalog.t; ctrs : Eval.counters option }

type bsink = Column.batch -> unit

type pipe = {
  cols : string list;
  biter : env -> bsink -> unit;
  stored : (env -> Relation.t) option;
      (* When the pipe's rows are exactly a stored relation's rows (modulo
         header names), expose it so consumers can borrow the row array
         instead of re-streaming. *)
  check : env -> bool;  (* non-emptiness, short-circuiting *)
  desc : string;
}

exception Found_row

(* [exists_row drive test] runs the batch stream [drive] until some batch
   [b] has a selected row [i] with [test b i], testing rows one at a time
   ([test b] specialises once per batch). *)
let exists_row drive test =
  try
    drive (fun b ->
        let live = test b in
        for k = 0 to b.Column.n - 1 do
          if live b.Column.sel.(k) then raise_notrace Found_row
        done);
    false
  with Found_row -> true

(* An emptiness probe executes no complete operator, so it runs with
   accounting suppressed: both the operator and the access-path counters
   stay untouched. *)
let quiet env = { env with ctrs = None }

(* Smart constructor: wraps the batch stream with per-execution row
   accounting (skipped entirely when no counters are attached). *)
let make ~check ~kind ~cols ~desc raw_biter =
  let biter env bsink =
    match env.ctrs with
    | None -> raw_biter env bsink
    | Some _ ->
      let n = ref 0 in
      raw_biter env (fun b ->
          n := !n + b.Column.n;
          bsink b);
      Eval.record_op env.ctrs kind ~rows:!n
  in
  { cols; biter; stored = None; check; desc }

(* Stored relations stream columnar without transposing: chunked identity
   selections over the relation's memoised typed vectors. *)
let biter_stored rel env bsink =
  let r = rel env in
  let n = Relation.cardinality r in
  if n > 0 then begin
    let vecs = Relation.columns r in
    Column.iter_chunks n ~f:(fun sel len ->
        bsink { Column.vecs; sel; n = len; rows = Some r.Relation.rows })
  end

(* ------------------------------------------------------------------ *)
(* Leaves. *)

let stored_pipe ~cols ~desc rel =
  {
    cols;
    biter = biter_stored rel;
    stored = Some rel;
    check = (fun env -> not (Relation.is_empty (rel env)));
    desc;
  }

let scan ~name ~cols =
  stored_pipe ~cols ~desc:(Printf.sprintf "scan(%s)" name) (fun env ->
      Catalog.find env.cat name)

let const r =
  stored_pipe ~cols:(Relation.cols r)
    ~desc:(Printf.sprintf "mat(R%d)" r.Relation.id)
    (fun _ -> r)

(* σ[col = const] over a stored relation through the catalog's hash index.
   [Catalog.lookup] falls back to scanning when indexing is disabled, so the
   compiled plan tracks the ablation toggle at execution time. *)
let index_probe ~name ~col ~value ~cols =
  make ~kind:Eval.Op_select ~cols
    ~desc:(Printf.sprintf "probe(%s.%s=%s)" name col (Value.to_string value))
    ~check:(fun env -> Catalog.has_value env.cat name col value)
    (fun env bsink ->
      Eval.record_access env.ctrs
        (if Catalog.indexing_enabled env.cat then Eval.Index_probe else Eval.Scan);
      let push, flush = Column.batching_sink bsink in
      List.iter push (Catalog.lookup env.cat name col value);
      flush ())

(* ------------------------------------------------------------------ *)
(* Streaming (fused) operators. *)

(* Fallback batch predicate: evaluate the row predicate over materialised
   rows.  [Compile] passes a typed [bpred] built against the concrete
   vector representations wherever it can. *)
let bpred_of_pred pred b =
  let getters = Array.map Column.getter b.Column.vecs in
  fun i -> pred (Array.map (fun get -> get i) getters)

let filter ?bpred ~pred inner =
  let bpred = match bpred with Some b -> b | None -> bpred_of_pred pred in
  make ~kind:Eval.Op_select ~cols:inner.cols ~desc:("σ(" ^ inner.desc ^ ")")
    ~check:(fun env -> exists_row (inner.biter (quiet env)) bpred)
    (fun env bsink ->
      Eval.record_access env.ctrs Eval.Scan;
      inner.biter env (fun b ->
          let live = bpred b in
          let out = Array.make b.Column.n 0 in
          let m = ref 0 in
          for k = 0 to b.Column.n - 1 do
            let i = b.Column.sel.(k) in
            if live i then begin
              out.(!m) <- i;
              incr m
            end
          done;
          if !m > 0 then bsink { b with Column.sel = out; n = !m }))

let project ~positions ~cols inner =
  make ~kind:Eval.Op_project ~cols ~check:inner.check
    ~desc:(Printf.sprintf "π[%s](%s)" (String.concat "," cols) inner.desc)
    (fun env bsink ->
      inner.biter env (fun b ->
          bsink
            { b with
              Column.vecs = Array.map (fun i -> b.Column.vecs.(i)) positions;
              rows = None;
            }))

(* A rename is free at execution time: only the header changes. *)
let with_cols cols inner = { inner with cols }

let distinct inner =
  make ~kind:Eval.Op_distinct ~cols:inner.cols ~check:inner.check
    ~desc:("δ(" ^ inner.desc ^ ")")
    (fun env bsink ->
      let seen : (Value.t array, unit) Hashtbl.t = Hashtbl.create 64 in
      let push, flush = Column.batching_sink bsink in
      inner.biter env (fun b ->
          for k = 0 to b.Column.n - 1 do
            let row = Column.row b k in
            if not (Hashtbl.mem seen row) then begin
              Hashtbl.replace seen row ();
              push row
            end
          done);
      flush ())

(* [each_row p env f] calls [f] on every row of [p], in stream order: a
   stored pipe lends its row array, anything else is read back off the
   batch stream. *)
let each_row p env f =
  match p.stored with
  | Some rel -> Array.iter f (rel env).Relation.rows
  | None ->
    p.biter env (fun b ->
        for k = 0 to b.Column.n - 1 do
          f (Column.row b k)
        done)

(* Every row of [p] as an array (a stored pipe's own). *)
let rows_of p env =
  match p.stored with
  | Some rel -> (rel env).Relation.rows
  | None ->
    let buf = ref [] in
    each_row p env (fun row -> buf := row :: !buf);
    Array.of_list (List.rev !buf)

(* ------------------------------------------------------------------ *)
(* Binary operators.  Output columns are always [left.cols @ right.cols]
   regardless of which side is built or buffered. *)

let hash_join ~build_left ~lkey ~rkey ~residual left right =
  let cols = left.cols @ right.cols in
  let desc =
    Printf.sprintf "hash_join[build=%s](%s, %s)"
      (if build_left then "left" else "right")
      left.desc right.desc
  in
  (* The build table is a pure function of the catalog (pipes are
     deterministic and the catalog is immutable after generation), so it is
     memoised across executions of the shared plan — in effect a per-plan
     join index, built on the first execution and probed by the rest.  The
     [Atomic] publishes the fully-built table; a concurrent first execution
     may build twice, and the last store wins (both tables are identical).
     Buckets list their rows in reverse build order.  The memo keys on the
     catalog's id, not the catalog: a cached plan last run on a superseded
     catalog version must not keep that version's relations and indexes
     alive. *)
  let memo : (int * (Value.t, Value.t array list) Hashtbl.t) option
             Atomic.t =
    Atomic.make None
  in
  let build, bkey, probe, pkey =
    if build_left then (left, lkey, right, rkey) else (right, rkey, left, lkey)
  in
  let table_for env =
    match Atomic.get memo with
    | Some (id, table) when id = Catalog.id env.cat -> table
    | _ ->
      let table : (Value.t, Value.t array list) Hashtbl.t =
        Hashtbl.create 64
      in
      each_row build env (fun row ->
          let k = row.(bkey) in
          let prev = try Hashtbl.find table k with Not_found -> [] in
          Hashtbl.replace table k (row :: prev));
      Atomic.set memo (Some (Catalog.id env.cat, table));
      table
  in
  (* [combine build_row probe_row] the joined row, columns in
     [left @ right] order whichever side was built. *)
  let combine =
    if build_left then fun lrow rrow -> Array.append lrow rrow
    else fun rrow lrow -> Array.append lrow rrow
  in
  make ~kind:Eval.Op_join ~cols ~desc
    ~check:(fun env ->
      let env = quiet env in
      let table = table_for env in
      exists_row (probe.biter env) (fun b ->
          let key = Column.getter b.Column.vecs.(pkey) in
          fun i ->
            match Hashtbl.find_opt table (key i) with
            | None -> false
            | Some ms -> (
              match residual with
              | None -> true
              | Some p ->
                let prow = Column.row_at b i in
                List.exists (fun m -> p (combine m prow)) ms)))
    (fun env bsink ->
      let table = table_for env in
      let push, flush = Column.batching_sink bsink in
      let emit =
        match residual with
        | None -> push
        | Some p -> fun row -> if p row then push row
      in
      (* A named loop, not a closure per probe row. *)
      let rec emit_matches prow = function
        | [] -> ()
        | m :: ms ->
          emit (combine m prow);
          emit_matches prow ms
      in
      (* Probe batch-wise: the key getter specialises per batch. *)
      probe.biter env (fun b ->
          let key = Column.getter b.Column.vecs.(pkey) in
          for k = 0 to b.Column.n - 1 do
            match Hashtbl.find_opt table (key b.Column.sel.(k)) with
            | None -> ()
            | Some ms -> emit_matches (Column.row b k) ms
          done);
      flush ())

let nl_product left right =
  let cols = left.cols @ right.cols in
  let right_arity = List.length right.cols in
  make ~kind:Eval.Op_product ~cols
    ~check:(fun env -> left.check env && right.check env)
    ~desc:(Printf.sprintf "×(%s, %s)" left.desc right.desc)
    (fun env bsink ->
      (* Right side columnised once; each left row broadcasts as constant
         vectors over the right chunks — no combined row materialises. *)
      let rvecs, rn =
        match right.stored with
        | Some rel ->
          let r = rel env in
          (lazy (Relation.columns r), Relation.cardinality r)
        | None ->
          let rows = rows_of right env in
          (lazy (Column.of_rows ~arity:right_arity rows), Array.length rows)
      in
      if rn > 0 then begin
        let rvecs = Lazy.force rvecs in
        let chunks = ref [] in
        Column.iter_chunks rn ~f:(fun sel len -> chunks := (sel, len) :: !chunks);
        let chunks = List.rev !chunks in
        left.biter env (fun lb ->
            for k = 0 to lb.Column.n - 1 do
              let i = lb.Column.sel.(k) in
              let consts =
                Array.map
                  (fun v -> Column.VConst (Column.get v i))
                  lb.Column.vecs
              in
              List.iter
                (fun (sel, len) ->
                  bsink
                    { Column.vecs = Array.append consts rvecs; sel; n = len; rows = None })
                chunks
            done)
      end)

(* [guard gs inner] emits [inner]'s rows only when every guard pipe is
   non-empty — the compiled form of the distinct-projection factorisation's
   emptiness tests for factors that carry no projected column. *)
let guard gs inner =
  let pass env = List.for_all (fun g -> g.check env) gs in
  {
    cols = inner.cols;
    biter = (fun env bsink -> if pass env then inner.biter env bsink);
    stored = None;
    check = (fun env -> pass env && inner.check env);
    desc =
      Printf.sprintf "guard[%s](%s)"
        (String.concat "; " (List.map (fun g -> g.desc) gs))
        inner.desc;
  }

(* ------------------------------------------------------------------ *)
(* Single-pass aggregation.  An [agg_state] is a fresh (feed, finish) pair
   per execution (and per group), so plans stay re-entrant. *)

type agg_spec =
  | Count_spec
  | Sum_spec of int
  | Avg_spec of int
  | Min_spec of int
  | Max_spec of int

let agg_state = function
  | Count_spec ->
    let n = ref 0 in
    ((fun _ -> incr n), fun () -> Value.Int !n)
  | Sum_spec p ->
    let acc = ref Value.Null in
    ((fun row -> acc := Value.add !acc row.(p)), fun () -> !acc)
  | Avg_spec p ->
    let sum = ref 0. and n = ref 0 in
    ( (fun row ->
        let v = row.(p) in
        if not (Value.is_null v) then
          match Value.to_float_opt v with
          | Some f ->
            sum := !sum +. f;
            incr n
          | None -> invalid_arg "Value.add: string operand"),
      fun () ->
        if !n = 0 then Value.Null else Value.Float (!sum /. float_of_int !n) )
  | (Min_spec p | Max_spec p) as spec ->
    let keep =
      match spec with Max_spec _ -> (fun c -> c > 0) | _ -> fun c -> c < 0
    in
    let best = ref None in
    ( (fun row ->
        let v = row.(p) in
        if not (Value.is_null v) then
          match !best with
          | Some b when not (keep (Value.compare v b)) -> ()
          | _ -> best := Some v),
      fun () -> Option.value ~default:Value.Null !best )

(* Batch aggregate state for the scalar [aggregate]: same accumulation
   order as {!agg_state} (rows in selection order), folded per batch. *)
let agg_bstate spec =
  match spec with
  | Count_spec ->
    let n = ref 0 in
    ((fun b -> n := !n + b.Column.n), fun () -> Value.Int !n)
  | Sum_spec p ->
    let acc = ref Value.Null in
    ( (fun b ->
        let get = Column.getter b.Column.vecs.(p) in
        for k = 0 to b.Column.n - 1 do
          acc := Value.add !acc (get b.Column.sel.(k))
        done),
      fun () -> !acc )
  | Avg_spec p ->
    let sum = ref 0. and n = ref 0 in
    ( (fun b ->
        let get = Column.getter b.Column.vecs.(p) in
        for k = 0 to b.Column.n - 1 do
          let v = get b.Column.sel.(k) in
          if not (Value.is_null v) then
            match Value.to_float_opt v with
            | Some f ->
              sum := !sum +. f;
              incr n
            | None -> invalid_arg "Value.add: string operand"
        done),
      fun () ->
        if !n = 0 then Value.Null else Value.Float (!sum /. float_of_int !n) )
  | (Min_spec p | Max_spec p) as spec ->
    let keep =
      match spec with Max_spec _ -> (fun c -> c > 0) | _ -> fun c -> c < 0
    in
    let best = ref None in
    ( (fun b ->
        let get = Column.getter b.Column.vecs.(p) in
        for k = 0 to b.Column.n - 1 do
          let v = get b.Column.sel.(k) in
          if not (Value.is_null v) then
            match !best with
            | Some bst when not (keep (Value.compare v bst)) -> ()
            | _ -> best := Some v
        done),
      fun () -> Option.value ~default:Value.Null !best )

let spec_name = function
  | Count_spec -> "count"
  | Sum_spec _ -> "sum"
  | Avg_spec _ -> "avg"
  | Min_spec _ -> "min"
  | Max_spec _ -> "max"

let aggregate ~spec ~col inner =
  make ~kind:Eval.Op_aggregate ~cols:[ col ]
    ~check:(fun _ -> true) (* aggregates always emit exactly one row *)
    ~desc:(Printf.sprintf "agg[%s](%s)" (spec_name spec) inner.desc)
    (fun env bsink ->
      let feed, finish = agg_bstate spec in
      inner.biter env feed;
      bsink (Column.batch_of_rows [| [| finish () |] |] 1))

(* Hash grouping with first-appearance output order (same as the
   interpreted evaluator), one aggregate state per group — the group's rows
   are folded as they stream by, never collected. *)
let group_by ~key_pos ~spec ~cols inner =
  make ~kind:Eval.Op_groupby ~cols ~check:inner.check
    ~desc:(Printf.sprintf "γ[%s](%s)" (spec_name spec) inner.desc)
    (fun env bsink ->
      let groups :
          (Value.t array, (Value.t array -> unit) * (unit -> Value.t)) Hashtbl.t
          =
        Hashtbl.create 64
      in
      let order = ref [] in
      inner.biter env (fun b ->
          for k = 0 to b.Column.n - 1 do
            let row = Column.row b k in
            let key = Array.map (fun i -> row.(i)) key_pos in
            let feed =
              match Hashtbl.find_opt groups key with
              | Some (feed, _) -> feed
              | None ->
                let state = agg_state spec in
                Hashtbl.add groups key state;
                order := key :: !order;
                fst state
            in
            feed row
          done);
      let push, flush = Column.batching_sink bsink in
      List.iter
        (fun key ->
          let _, finish = Hashtbl.find groups key in
          push (Array.append key [| finish () |]))
        (List.rev !order);
      flush ())

(* ------------------------------------------------------------------ *)
(* A complete plan: a root pipe plus the header the result must carry. *)

type t = { header : string list; root : pipe }

let of_pipe ~header root = { header; root }
let header t = t.header
let describe t = t.root.desc

let execute ?ctrs cat t =
  let env = { cat; ctrs } in
  match t.root.stored with
  | Some rel ->
    (* Zero-copy: the root is a stored relation; only the header may need
       re-labelling (rows are immutable and shared safely). *)
    let r = rel env in
    if Relation.cols r = t.header then r
    else Relation.of_rows ~cols:t.header r.Relation.rows
  | None -> Relation.of_rows ~cols:t.header (rows_of t.root env)

(* Stream the result as batches (the fused evaluate-and-accumulate path).
   Batches are only valid during the callback: vectors are shared, but
   selection arrays may be reused by producers — consumers must not retain
   them. *)
let iter_batches ?ctrs cat t ~f = t.root.biter { cat; ctrs } f

(* The weight-vector channel: the batch stream with every batch carrying
   the producing e-unit's mapping-mass vector.  The plan runs exactly once
   regardless of how many mappings the vector describes — that is the
   factorized executor's one-pass-for-all-h property. *)
let iter_wbatches ?ctrs cat t ~weights ~f =
  t.root.biter { cat; ctrs } (fun batch -> f { Column.batch; weights })

let nonempty ?ctrs cat t = t.root.check { cat; ctrs }
