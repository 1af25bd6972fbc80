(** The SUM aggregate's one accumulator, shared by the interpreted
    evaluator and the plan engine.

    Null is absorbed (a SUM of no non-null operand is Null) and a string
    operand raises [Invalid_argument "Value.add: string operand"].  All-Int
    operands give their Int sum.  Any Float operand makes the result the
    correctly rounded exact sum of every operand's float value, so the
    result does not depend on the order or grouping of the rows: row order,
    batch boundaries, join order and plan shape cannot change a SUM key.
    Non-finite operands (say, from a CSV import) add as IEEE floats do, and
    a sum of finite operands that overflows is the infinity of its sign. *)

type t

val create : unit -> t

(** [add t v] folds one operand into [t]. *)
val add : t -> Value.t -> unit

(** [value t] the sum of every operand added so far. *)
val value : t -> Value.t
