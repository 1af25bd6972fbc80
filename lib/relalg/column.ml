(* Typed column vectors and row batches — the data plane of the vectorized
   engine.

   A [vec] is one column in its tightest available representation: unboxed
   [int array] / [float array] with an optional null mask, interned strings
   as dictionary ids, or a boxed [Value.t array] when the column mixes
   payload types (the catalogs here are untyped, so e.g. a float column
   sampled from mixed generators keeps Int and Float values distinct — the
   boxed fallback preserves [Value.t] identity exactly), or a view into the
   rows a pipeline breaker built.

   A [batch] is a slice of up to {!batch_size} rows over shared column
   vectors plus a selection vector of absolute row indices: filters narrow
   the selection without copying any column data, and projections remap the
   [vecs] array without touching rows at all.  A batch over a row store
   (a stored relation, or rows a pipeline breaker built) keeps the rows
   too, so consumers that need rows back do not re-box them. *)

type vec =
  | VInt of int array * Bytes.t option
  | VFloat of float array * Bytes.t option
  | VStr of int array * string array  (* dictionary ids; -1 encodes Null *)
  | VVal of Value.t array
  | VRows of Value.t array array * int  (* column [c] of a row store *)
  | VConst of Value.t

type batch = {
  vecs : vec array;
  sel : int array;
  n : int;
  rows : Value.t array array option;
      (* the row store [vecs] columnise, in column order, when there is one *)
}

(* The weight-vector channel of the factorized multi-mapping executor: a
   batch annotated with the Pr(mᵢ) masses of every mapping whose
   reformulation contains the e-unit that produced it.  The vector is
   constant across one plan execution (it describes the producing e-unit,
   not individual rows) and is shared, not copied, per batch. *)
type weighted = { batch : batch; weights : float array }

let batch_size = 1024

(* A set byte marks a null row; the mask is absent when no row is null. *)
let null_at mask i = Bytes.unsafe_get mask i <> '\000'

let get v i =
  match v with
  | VInt (a, None) -> Value.Int a.(i)
  | VInt (a, Some m) -> if null_at m i then Value.Null else Value.Int a.(i)
  | VFloat (a, None) -> Value.Float a.(i)
  | VFloat (a, Some m) -> if null_at m i then Value.Null else Value.Float a.(i)
  | VStr (ids, dict) ->
    let id = ids.(i) in
    if id < 0 then Value.Null else Value.Str dict.(id)
  | VVal a -> a.(i)
  | VRows (rows, c) -> rows.(i).(c)
  | VConst c -> c

(* [getter v] specialises {!get} once per vector, for per-batch loops. *)
let getter v =
  match v with
  | VInt (a, None) -> fun i -> Value.Int a.(i)
  | VInt (a, Some m) -> fun i -> if null_at m i then Value.Null else Value.Int a.(i)
  | VFloat (a, None) -> fun i -> Value.Float a.(i)
  | VFloat (a, Some m) ->
    fun i -> if null_at m i then Value.Null else Value.Float a.(i)
  | VStr (ids, dict) ->
    fun i ->
      let id = ids.(i) in
      if id < 0 then Value.Null else Value.Str dict.(id)
  | VVal a -> fun i -> a.(i)
  | VRows (rows, c) -> fun i -> rows.(i).(c)
  | VConst c -> fun _ -> c

let row_at b i =
  match b.rows with
  | Some rows -> rows.(i)
  | None -> Array.map (fun v -> get v i) b.vecs

let row b k = row_at b b.sel.(k)

(* ------------------------------------------------------------------ *)
(* Columnising a row store.  Each column independently picks the tightest
   representation that loses no [Value.t] identity. *)

let of_rows_col rows col =
  let n = Array.length rows in
  let ints = ref true and floats = ref true and strs = ref true in
  let nulls = ref false in
  for i = 0 to n - 1 do
    match rows.(i).(col) with
    | Value.Null -> nulls := true
    | Value.Int _ ->
      floats := false;
      strs := false
    | Value.Float _ ->
      ints := false;
      strs := false
    | Value.Str _ ->
      ints := false;
      floats := false
  done;
  if !ints then begin
    let a = Array.make n 0 in
    let mask = if !nulls then Some (Bytes.make n '\000') else None in
    Array.iteri
      (fun i r ->
        match r.(col) with
        | Value.Int x -> a.(i) <- x
        | _ -> Bytes.set (Option.get mask) i '\001')
      rows;
    VInt (a, mask)
  end
  else if !floats then begin
    let a = Array.make n 0. in
    let mask = if !nulls then Some (Bytes.make n '\000') else None in
    Array.iteri
      (fun i r ->
        match r.(col) with
        | Value.Float x -> a.(i) <- x
        | _ -> Bytes.set (Option.get mask) i '\001')
      rows;
    VFloat (a, mask)
  end
  else if !strs then begin
    let ids = Array.make n (-1) in
    let intern = Hashtbl.create 64 in
    let dict = ref [] and next = ref 0 in
    Array.iteri
      (fun i r ->
        match r.(col) with
        | Value.Str s ->
          ids.(i) <-
            (match Hashtbl.find_opt intern s with
            | Some id -> id
            | None ->
              let id = !next in
              incr next;
              Hashtbl.add intern s id;
              dict := s :: !dict;
              id)
        | _ -> ())
      rows;
    VStr (ids, Array.of_list (List.rev !dict))
  end
  else VVal (Array.map (fun r -> r.(col)) rows)

let of_rows ~arity rows = Array.init arity (fun c -> of_rows_col rows c)

(* ------------------------------------------------------------------ *)
(* Building batches from row producers (pipeline breakers).  The batch's
   vectors are views into the rows, not a transposed copy — the producer
   already materialised [Value.t] arrays, and consumers often want rows
   back (hash-join builds, product inner sides, distinct) or read only a
   few columns. *)

let batch_of_rows rows n =
  let arity = if n = 0 then 0 else Array.length rows.(0) in
  let rows = Array.sub rows 0 n in
  let vecs = Array.init arity (fun c -> VRows (rows, c)) in
  { vecs; sel = Array.init n (fun i -> i); n; rows = Some rows }

(* [batching_sink bsink] = [(push, flush)]: [push row] buffers and emits a
   full batch every {!batch_size} rows; [flush ()] emits the remainder. *)
let batching_sink bsink =
  let buf = Array.make batch_size [||] in
  let k = ref 0 in
  let emit () =
    bsink (batch_of_rows buf !k);
    k := 0
  in
  let push row =
    buf.(!k) <- row;
    incr k;
    if !k = batch_size then emit ()
  in
  let flush () = if !k > 0 then emit () in
  (push, flush)

(* [iter_chunks n ~f] covers [0, n) with identity selections of at most
   {!batch_size} rows: [f sel len] with [sel.(0..len-1)] consecutive. *)
let iter_chunks n ~f =
  let off = ref 0 in
  while !off < n do
    let base = !off in
    let len = min batch_size (n - base) in
    f (Array.init len (fun k -> base + k)) len;
    off := base + len
  done
