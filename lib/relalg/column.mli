(** Typed column vectors and row batches — the data plane of the vectorized
    engine.

    Stored relations columnise lazily ({!Relation.columns}) into the
    tightest representation that preserves [Value.t] identity exactly:
    unboxed ints/floats with an optional null mask, dictionary-interned
    strings, or a boxed fallback for mixed-type columns.  A {!batch} is a
    slice of up to {!batch_size} rows over shared vectors plus a selection
    vector of {e absolute} row indices — filters narrow the selection and
    projections remap the vector array, neither copying column data. *)

type vec =
  | VInt of int array * Bytes.t option
      (** values + null mask ([None] = no nulls); a set byte marks Null *)
  | VFloat of float array * Bytes.t option
  | VStr of int array * string array
      (** per-row dictionary ids ([-1] = Null) + the dictionary *)
  | VVal of Value.t array  (** boxed fallback for mixed-type columns *)
  | VRows of Value.t array array * int
      (** column [c] of a row store: row [i] holds its value at [.(c)] *)
  | VConst of Value.t  (** every row holds the same value (broadcast) *)

type batch = {
  vecs : vec array;
  sel : int array;
      (** absolute row indices into each vec; only [sel.(0..n-1)] is live *)
  n : int;
  rows : Value.t array array option;
      (** the row store the vectors were built from, when they are exactly
          its columns in order: [rows.(i)] is absolute row [i].  Lets
          {!row} hand back a row without re-boxing it.  Operators that
          remap [vecs] must drop it. *)
}

(** A batch annotated with an e-unit's mapping-mass weight vector: the
    Pr(mᵢ) of every mapping whose reformulation contains the e-unit that
    produced the batch, in ascending mapping order.  The factorized
    multi-mapping executor streams these so one plan execution carries the
    probability mass of all its mappings at once; the vector is shared
    across all batches of one execution. *)
type weighted = { batch : batch; weights : float array }

val batch_size : int

(** [null_at mask i] — true when the mask marks row [i] null. *)
val null_at : Bytes.t -> int -> bool

(** [get v i] the value of absolute row [i]. *)
val get : vec -> int -> Value.t

(** [getter v] specialises {!get} once per vector for tight loops. *)
val getter : vec -> int -> Value.t

(** [row_at b i] absolute row [i] of [b]'s vectors: the batch's backing
    row when it carries [rows] (shared — callers must not mutate it),
    otherwise a fresh array. *)
val row_at : batch -> int -> Value.t array

(** [row b k] the [k]-th {e selected} row ({!row_at} of [sel.(k)]). *)
val row : batch -> int -> Value.t array

(** [of_rows ~arity rows] columnises a row store, one tightest-fit vector
    per column. *)
val of_rows : arity:int -> Value.t array array -> vec array

(** [batch_of_rows rows n] a batch over [rows.(0..n-1)] with an identity
    selection: {!VRows} views plus the rows themselves (copied out of
    [rows], so the caller may reuse the buffer). *)
val batch_of_rows : Value.t array array -> int -> batch

(** [batching_sink bsink] = [(push, flush)]: [push] buffers rows and emits
    a batch every {!batch_size}; [flush] emits the remainder. *)
val batching_sink : (batch -> unit) -> (Value.t array -> unit) * (unit -> unit)

(** [iter_chunks n ~f] covers [0, n) with consecutive identity selections
    of at most {!batch_size} rows: [f sel len]. *)
val iter_chunks : int -> f:(int array -> int -> unit) -> unit
