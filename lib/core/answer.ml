open Urm_relalg

(* Buckets live in an open-addressed table specialized to answer tuples
   rather than a generic [Hashtbl]: the factorized executor performs one
   find-or-insert per emitted tuple (hundreds of thousands per e-unit), and
   the generic table pays for that with two hash computations per
   accumulate (find, then add), a cons cell per binding, and list-walk
   probes — about 1.2μs per accumulate against ~0.25μs here.  Hashing is
   the stdlib's own polymorphic hash and equality matches polymorphic
   comparison on [Value.t] ([Float.compare] on floats, so nan/-0. bucket
   exactly as before), which keeps bucket identity — and therefore every
   bit-identity regression — unchanged. *)

let dummy_key : Value.t array = [||]

type table = {
  mutable hashes : int array; (* -1 = free slot, else the key's hash (≥ 0) *)
  mutable keys : Value.t array array;
  mutable ids : int array; (* slot → bucket id *)
  mutable count : int;
}

let value_eq a b =
  a == b
  ||
  match (a, b) with
  | Value.Null, Value.Null -> true
  | Value.Int x, Value.Int y -> Int.equal x y
  | Value.Float x, Value.Float y -> Float.compare x y = 0
  | Value.Str x, Value.Str y -> String.equal x y
  | _, _ -> false

let tuple_eq a b =
  a == b
  || Array.length a = Array.length b
     &&
     let rec go i = i >= Array.length a || (value_eq a.(i) b.(i) && go (i + 1)) in
     go 0

let tbl_create () =
  {
    hashes = Array.make 16 (-1);
    keys = Array.make 16 dummy_key;
    ids = Array.make 16 0;
    count = 0;
  }

(* Linear probe to [key]'s slot, or to the first free slot of its run.
   Stored hashes are compared before any key is dereferenced, so a probe
   over occupied foreign slots touches only the int array.  Terminates
   because the load factor is kept ≤ 1/2. *)
let slot tb h key =
  let mask = Array.length tb.hashes - 1 in
  let i = ref (h land mask) in
  while
    let hi = tb.hashes.(!i) in
    hi >= 0 && not (hi = h && tuple_eq tb.keys.(!i) key)
  do
    i := (!i + 1) land mask
  done;
  !i

(* Redistribution never needs key comparison (all stored keys are
   distinct) or re-hashing (hashes are stored): probe to a free slot. *)
let place tb h key id =
  let mask = Array.length tb.hashes - 1 in
  let i = ref (h land mask) in
  while tb.hashes.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  tb.hashes.(!i) <- h;
  tb.keys.(!i) <- key;
  tb.ids.(!i) <- id;
  tb.count <- tb.count + 1

let grow_to tb ncap =
  let ohashes = tb.hashes and okeys = tb.keys and oids = tb.ids in
  tb.hashes <- Array.make ncap (-1);
  tb.keys <- Array.make ncap dummy_key;
  tb.ids <- Array.make ncap 0;
  tb.count <- 0;
  Array.iteri (fun j h -> if h >= 0 then place tb h okeys.(j) oids.(j)) ohashes

let grow tb = grow_to tb (2 * Array.length tb.hashes)

let tbl_iter f tb =
  Array.iteri (fun i h -> if h >= 0 then f tb.keys.(i) tb.ids.(i)) tb.hashes

let tbl_fold f tb init =
  let acc = ref init in
  Array.iteri
    (fun i h -> if h >= 0 then acc := f tb.keys.(i) tb.ids.(i) !acc)
    tb.hashes;
  !acc

type t = {
  output : string list;
  arity : int;
  rows : table;
  (* Bucket id → accumulated probability.  Ids are dense insertion indices
     and probabilities live unboxed in one float array, so a replayed
     accumulation (see {!bump}) is a plain array update with no pointer
     chasing or allocation. *)
  mutable vals : float array;
  mutable next_id : int; (* monotonic — compacted ids are never reused *)
  mutable null_mass : float;
}

let create output =
  {
    output;
    arity = List.length output;
    rows = tbl_create ();
    vals = Array.make 16 0.;
    next_id = 0;
    null_mass = 0.;
  }

let output t = t.output
let tuple_equal = tuple_eq

(* Find-or-insert in a single probe; accumulates [p] into [tuple]'s bucket
   and returns the bucket's id. *)
let add_id t tuple p =
  if Array.length tuple <> t.arity then invalid_arg "Answer.add: arity mismatch";
  let tb = t.rows in
  if 2 * (tb.count + 1) > Array.length tb.hashes then grow tb;
  let h = Hashtbl.hash tuple in
  let i = slot tb h tuple in
  if tb.hashes.(i) < 0 then (
    let id = t.next_id in
    t.next_id <- id + 1;
    if id >= Array.length t.vals then (
      let n = Array.make (2 * Array.length t.vals) 0. in
      Array.blit t.vals 0 n 0 (Array.length t.vals);
      t.vals <- n);
    t.vals.(id) <- p;
    tb.hashes.(i) <- h;
    tb.keys.(i) <- tuple;
    tb.ids.(i) <- id;
    tb.count <- tb.count + 1;
    id)
  else (
    let id = tb.ids.(i) in
    t.vals.(id) <- t.vals.(id) +. p;
    id)

let add t tuple p = ignore (add_id t tuple p)

(* Pre-size for [n] further insertions: one redistribution now instead of
   log₂ n doublings (and their rehash traffic) spread across a bulk insert
   pass whose size is already known. *)
let reserve t n =
  let tb = t.rows in
  let needed = 2 * (tb.count + n) in
  if needed > Array.length tb.hashes then (
    let cap = ref (Array.length tb.hashes) in
    while !cap < needed do
      cap := 2 * !cap
    done;
    grow_to tb !cap);
  let vneeded = t.next_id + n in
  if vneeded > Array.length t.vals then (
    let cap = ref (Array.length t.vals) in
    while !cap < vneeded do
      cap := 2 * !cap
    done;
    let nv = Array.make !cap 0. in
    Array.blit t.vals 0 nv 0 (Array.length t.vals);
    t.vals <- nv)

(* Replay a further accumulation into a bucket previously returned by
   {!add_id} — valid for the answer's lifetime; {!compact} drops a ghost
   bucket's table entry but never reassigns its id. *)
let bump t id p = t.vals.(id) <- t.vals.(id) +. p

let tbl_find tb key =
  let i = slot tb (Hashtbl.hash key) key in
  if tb.hashes.(i) < 0 then None else Some tb.ids.(i)

(* The collapsed mass of a weight vector: summed left to right from [0.],
   which is exactly an incremental per-mapping sum (and the mass
   [Ebasic.distinct_source_queries] hands the interpreted oracles) — so
   factorized answers stay bit-identical to the interpreted per-unit
   accumulation. *)
let vec_mass w = Array.fold_left ( +. ) 0. w

(* Bulk weighted accumulate: fold a whole weight vector into one bucket
   addition.  One call replaces the h per-mapping [add]s a non-factorized
   evaluation would perform for this tuple. *)
let add_vec t tuple w = add t tuple (vec_mass w)
let add_null t p = t.null_mass <- t.null_mass +. p
let null_prob t = t.null_mass

(* Merging sums the source's per-tuple masses into the target.  When
   partial answers are built over disjoint contiguous mapping ranges and
   merged in ascending range order, every tuple's probability is summed in
   ascending mapping order — exactly the accumulation order of the
   sequential loop — so the merged answer is bit-identical to a sequential
   run, for any number of ranges. *)
let merge_into t other =
  if t.output <> other.output then invalid_arg "Answer.merge_into: header mismatch";
  tbl_iter (fun tuple id -> add t tuple other.vals.(id)) other.rows;
  t.null_mass <- t.null_mass +. other.null_mass

(* Delta maintenance patches buckets with signed increments: a tuple whose
   contributions were fully retracted is left holding the float residue of
   [+p … -p] cancellation (≈ ulp-sized, possibly negative) rather than
   disappearing.  [equal] matches buckets one-to-one, so such ghosts would
   make a patched answer differ from a fresh evaluation even though every
   probability agrees within eps.  The epsilon floor removes them; genuine
   buckets always carry at least one mapping's probability, which in any
   normalised mapping set is orders of magnitude above {!Prob.eps}. *)
let compact ?(eps = Prob.eps) t =
  let tb = t.rows in
  let doomed =
    tbl_fold
      (fun _ id n -> if Float.abs t.vals.(id) <= eps then n + 1 else n)
      tb 0
  in
  if doomed > 0 then (
    (* Rebuild without the ghosts; surviving buckets keep their ids so
       outstanding {!add_id} handles stay live — [next_id] never goes
       backwards, so a ghost's id is never reassigned. *)
    let ohashes = tb.hashes and okeys = tb.keys and oids = tb.ids in
    tb.hashes <- Array.make (Array.length ohashes) (-1);
    tb.keys <- Array.make (Array.length okeys) dummy_key;
    tb.ids <- Array.make (Array.length oids) 0;
    tb.count <- 0;
    Array.iteri
      (fun j h ->
        if h >= 0 && Float.abs t.vals.(oids.(j)) > eps then
          place tb h okeys.(j) oids.(j))
      ohashes);
  if t.null_mass < 0. && t.null_mass >= -.eps then t.null_mass <- 0.

let compare_tuples a b =
  let rec go i =
    if i >= Array.length a then 0
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* The answer ranking: probability descending, then tuple order.  A total
   order on distinct buckets ([compare_tuples] is 0 exactly when
   [tuple_eq] holds), so every ranking below is independent of table
   layout. *)
let rank (ta, pa) (tb, pb) =
  let c = Float.compare pb pa in
  if c <> 0 then c else compare_tuples ta tb

let iter f t = tbl_iter (fun tuple id -> f tuple t.vals.(id)) t.rows

let to_list t =
  tbl_fold (fun tuple id acc -> (tuple, t.vals.(id)) :: acc) t.rows []
  |> List.sort rank

(* Bounded selection: a size-[k] max-heap under [order] keeps the k best
   elements [each] offers (its root is the worst of them) — O(n log k)
   instead of sorting all n to keep a few.  Returns the heap array, root
   first; [k] must be positive. *)
let select_k ~order k dummy each =
  let heap = Array.make k dummy and n = ref 0 in
  let swap i j =
    let x = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- x
  in
  let rec up i =
    let parent = (i - 1) / 2 in
    if i > 0 && order heap.(parent) heap.(i) < 0 then (
      swap parent i;
      up parent)
  in
  let rec down i =
    let l = (2 * i) + 1 in
    let r = l + 1 in
    let worst = if l < !n && order heap.(l) heap.(i) > 0 then l else i in
    let worst = if r < !n && order heap.(r) heap.(worst) > 0 then r else worst in
    if worst <> i then (
      swap i worst;
      down worst)
  in
  each (fun x ->
      if !n < k then (
        heap.(!n) <- x;
        up !n;
        incr n)
      else if order x heap.(0) < 0 then (
        heap.(0) <- x;
        down 0));
  Array.sub heap 0 !n

let top_k t k =
  if k >= t.rows.count then to_list t
  else if k <= 0 then []
  else
    select_k ~order:rank k (dummy_key, 0.) (fun f -> iter (fun tuple p -> f (tuple, p)) t)
    |> Array.to_list |> List.sort rank

(* The same selection over probabilities alone: no tuple is compared, so a
   tie-dominated answer costs one float comparison per bucket. *)
let kth_prob t k =
  if k <= 0 || k > t.rows.count then 0.
  else
    (select_k ~order:(fun a b -> Float.compare b a) k 0. (fun f ->
         iter (fun _ p -> f p) t)).(0)

let size t = t.rows.count
let total_prob t = tbl_fold (fun _ id acc -> acc +. t.vals.(id)) t.rows t.null_mass

let prob_of t tuple =
  match tbl_find t.rows tuple with Some id -> t.vals.(id) | None -> 0.

let approx_tuple_equal ta tb =
  Array.length ta = Array.length tb
  &&
  let rec go i =
    i >= Array.length ta || (Value.approx_equal ta.(i) tb.(i) && go (i + 1))
  in
  go 0

(* Equality is a one-to-one matching of buckets: every tuple of [a] must
   claim a distinct, not-yet-consumed bucket of [b] whose key matches
   (exactly, else approximately — float-valued aggregates computed by
   differently-ordered summations land on slightly different keys) with
   probability within [eps].  Without consumption, two near-identical
   float keys of [a] could both match one bucket of [b] and equal sizes
   would still report equality on unequal answers (and the check was
   asymmetric). *)
let equal ?(eps = Prob.eps) a b =
  a.output = b.output
  && abs_float (a.null_mass -. b.null_mass) <= eps
  && a.rows.count = b.rows.count
  &&
  let consumed : (Value.t array, unit) Hashtbl.t =
    Hashtbl.create (max 16 a.rows.count)
  in
  let claim tuple p =
    let matches key id =
      (not (Hashtbl.mem consumed key)) && abs_float (b.vals.(id) -. p) <= eps
    in
    match tbl_find b.rows tuple with
    | Some id when matches tuple id ->
      Hashtbl.add consumed tuple ();
      true
    | _ -> (
      let found =
        tbl_fold
          (fun key id acc ->
            match acc with
            | Some _ -> acc
            | None ->
              if approx_tuple_equal tuple key && matches key id then Some key
              else None)
          b.rows None
      in
      match found with
      | Some key ->
        Hashtbl.add consumed key ();
        true
      | None -> false)
  in
  tbl_fold (fun tuple id ok -> ok && claim tuple a.vals.(id)) a.rows true

(* Serialisation follows [to_list]'s deterministic ranking, so two answers
   with bit-identical probabilities render to byte-identical JSON — the
   property the byte-identity checks (shard counts, sharing oracle)
   compare. *)
let to_json t =
  let rows = to_list t in
  let open Urm_util.Json in
  let value = function
    | Value.Null -> Null
    | Value.Int i -> Num (float_of_int i)
    | Value.Float f -> Num f
    | Value.Str s -> Str s
  in
  Obj
    [
      ("output", Arr (List.map (fun c -> Str c) t.output));
      ( "answers",
        Arr
          (List.map
             (fun (tuple, p) ->
               Obj
                 [
                   ("tuple", Arr (Array.to_list (Array.map value tuple)));
                   ("prob", Num p);
                 ])
             rows) );
      ("null_prob", Num t.null_mass);
    ]

let pp ppf t =
  Format.fprintf ppf "@[<v>answer over (%s):" (String.concat ", " t.output);
  List.iter
    (fun (tuple, p) ->
      Format.fprintf ppf "@,  (%s) : %.4f"
        (String.concat ", " (Array.to_list (Array.map Value.to_string tuple)))
        p)
    (to_list t);
  if t.null_mass > 0. then Format.fprintf ppf "@,  θ : %.4f" t.null_mass;
  Format.fprintf ppf "@]"
