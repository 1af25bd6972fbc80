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

(* Exact sums (Shewchuk, "Adaptive Precision Floating-Point Arithmetic",
   1997).  A bucket holds the exact sum S of every mass added to it:
   probability masses span well under 106 bits, so S is nearly always the
   exact sum of a float pair, and a read rounds it once (nearest-even).
   A sum that needs more floats spills to its canonical expansion c₁ =
   RN(S), c₂ = RN(S − c₁), …, which is also the wire form: one
   representation per real value.  Masses must be finite.  The list
   arithmetic is {!Urm_util.Expansion}'s; only the pair update lives
   here. *)

type t = {
  output : string list;
  arity : int;
  rows : table;
  (* Bucket id → a float pair whose exact sum is the bucket's, at
     [2·id] and [2·id + 1]: unboxed and on one cache line, so a replayed
     accumulation (see {!bump}) is a few flops with no pointer chasing or
     allocation.  A spilled bucket keeps c₁ and nan there.  Id 0 is θ. *)
  mutable sums : float array;
  long : (int, float list) Hashtbl.t; (* id → canonical expansion, > 2 terms *)
  mutable next_id : int; (* monotonic — compacted ids are never reused *)
}

let null_id = 0

let create output =
  {
    output;
    arity = List.length output;
    rows = tbl_create ();
    sums = Array.make 32 0.;
    long = Hashtbl.create 1;
    next_id = 1;
  }

let output t = t.output
let tuple_equal = tuple_eq

(* [id]'s correctly rounded sum: one rounding of its exact pair. *)
let value t id =
  let hi = t.sums.(2 * id) and lo = t.sums.((2 * id) + 1) in
  if Float.is_nan lo then hi else hi +. lo

(* [id]'s exact sum as its canonical expansion, largest first. *)
let exact t id =
  match Hashtbl.find_opt t.long id with
  | Some e -> e
  | None ->
    let hi = t.sums.(2 * id) and lo = t.sums.((2 * id) + 1) in
    let s = hi +. lo in
    let b = s -. hi in
    List.filter (fun c -> c <> 0.) [ s; (hi -. (s -. b)) +. (lo -. b) ]

let set_exact t id e =
  let c k = Option.value ~default:0. (List.nth_opt e k) in
  let long = List.compare_length_with e 2 > 0 in
  t.sums.(2 * id) <- c 0;
  t.sums.((2 * id) + 1) <- (if long then Float.nan else c 1);
  if long then Hashtbl.replace t.long id e else Hashtbl.remove t.long id

(* The hot path: (hi + lo) + p by two TwoSums.  When their errors sum
   exactly, S = s + u is the new pair; otherwise (or when [lo] is the
   spill marker nan, which makes the error nan) the bucket takes the
   expansion path. *)
let[@inline] accumulate t id p =
  let i = 2 * id in
  let hi = t.sums.(i) and lo = t.sums.(i + 1) in
  let s = hi +. p in
  let b = s -. hi in
  let e = (hi -. (s -. b)) +. (p -. b) in
  let u = e +. lo in
  let b = u -. e in
  if (e -. (u -. b)) +. (lo -. b) = 0. then begin
    t.sums.(i) <- s;
    t.sums.(i + 1) <- u
  end
  else set_exact t id (Urm_util.Expansion.add (exact t id) p)

let ensure t n =
  let len = Array.length t.sums in
  if 2 * n > len then begin
    let b = Array.make (max (2 * n) (2 * len)) 0. in
    Array.blit t.sums 0 b 0 len;
    t.sums <- b
  end

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
    ensure t (id + 1);
    t.sums.(2 * id) <- p;
    t.sums.((2 * id) + 1) <- 0.;
    tb.hashes.(i) <- h;
    tb.keys.(i) <- tuple;
    tb.ids.(i) <- id;
    tb.count <- tb.count + 1;
    id)
  else (
    let id = tb.ids.(i) in
    accumulate t id p;
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
  ensure t (t.next_id + n)

(* Replay a further accumulation into buckets previously returned by
   {!add_id} — valid for the answer's lifetime; {!compact} drops a zero
   bucket's table entry but never reassigns its id.  One call per replay
   keeps [p] unboxed and [accumulate] inlined across the whole loop. *)
let bump t ids p =
  for i = 0 to Array.length ids - 1 do
    accumulate t ids.(i) p
  done

let tbl_find tb key =
  let i = slot tb (Hashtbl.hash key) key in
  if tb.hashes.(i) < 0 then None else Some tb.ids.(i)

(* A unit's mass: the exact sum of its mappings' probabilities, as the
   canonical expansion a bucket reads back ({!iter_exact}).  Adding its
   components adds exactly Σ Pr(m), so a unit of several mappings leaves
   the same bucket sums as its mappings added one by one. *)
let mass = Urm_util.Expansion.sum
let round = Urm_util.Expansion.round

let add_null t p = accumulate t null_id p
let null_prob t = value t null_id
let null_exact t = exact t null_id
let iter_exact f t = tbl_iter (fun tuple id -> f tuple (exact t id)) t.rows

(* Adding an expansion's components one by one is exact, so the bucket
   ends on the same canonical sum whatever the list's form; an empty list
   (a zero sum) still creates the bucket. *)
let add_exact t tuple = function
  | [] -> add t tuple 0.
  | c :: cs ->
    let id = add_id t tuple c in
    List.iter (accumulate t id) cs

(* Merging adds the source's exact sums, not their rounded values, so any
   grouping of the same additions into parts, merged in any order, ends on
   the same sums. *)
let merge_into t other =
  if t.output <> other.output then invalid_arg "Answer.merge_into: header mismatch";
  iter_exact (add_exact t) other;
  List.iter (add_null t) (null_exact other)

(* Drop the buckets whose exact sum is zero: a tuple retracted by the
   negation of every mass it was given.  Any other bucket's exact sum is a
   nonzero multiple of the least subnormal, so its rounded value is never
   0 and survives. *)
let compact t =
  let tb = t.rows in
  let live id = value t id <> 0. in
  if tbl_fold (fun _ id n -> if live id then n else n + 1) tb 0 > 0 then (
    (* Rebuild without the zeros; surviving buckets keep their ids so
       outstanding {!add_id} handles stay live — [next_id] never goes
       backwards, so a dropped bucket's id is never reassigned. *)
    let ohashes = tb.hashes and okeys = tb.keys and oids = tb.ids in
    tb.hashes <- Array.make (Array.length ohashes) (-1);
    tb.keys <- Array.make (Array.length okeys) dummy_key;
    tb.ids <- Array.make (Array.length oids) 0;
    tb.count <- 0;
    Array.iteri
      (fun j h -> if h >= 0 && live oids.(j) then place tb h okeys.(j) oids.(j))
      ohashes)

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

let iter f t = tbl_iter (fun tuple id -> f tuple (value t id)) t.rows

let to_list t =
  tbl_fold (fun tuple id acc -> (tuple, value t id) :: acc) t.rows []
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
(* The exact sum of every bucket and θ, rounded once. *)
let total_prob t =
  let acc = create [] in
  iter_exact (fun _ e -> List.iter (add_null acc) e) t;
  List.iter (add_null acc) (null_exact t);
  null_prob acc

let prob_of t tuple =
  match tbl_find t.rows tuple with Some id -> value t id | None -> 0.

let exact_of t tuple =
  match tbl_find t.rows tuple with Some id -> exact t id | None -> []

(* Bucket keys are exact (every aggregate key is order-independent), so
   equality is one hash probe per bucket. *)
let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let equal a b =
  a.output = b.output
  && same_bits (null_prob a) (null_prob b)
  && a.rows.count = b.rows.count
  && tbl_fold
       (fun tuple id ok ->
         ok
         &&
         match tbl_find b.rows tuple with
         | Some id' -> same_bits (value a id) (value b id')
         | None -> false)
       a.rows true

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
      ("null_prob", Num (null_prob t));
    ]

let pp ppf t =
  Format.fprintf ppf "@[<v>answer over (%s):" (String.concat ", " t.output);
  List.iter
    (fun (tuple, p) ->
      Format.fprintf ppf "@,  (%s) : %.4f"
        (String.concat ", " (Array.to_list (Array.map Value.to_string tuple)))
        p)
    (to_list t);
  if null_prob t > 0. then Format.fprintf ppf "@,  θ : %.4f" (null_prob t);
  Format.fprintf ppf "@]"
