(** Imperative binary heap, parameterised by an explicit comparison.

    Used by Murty's k-best assignment enumeration as its subproblem
    queue. *)

type 'a t

(** [create cmp] is an empty heap; the minimum according to [cmp] sits at
    the root (pass a flipped comparison for a max-heap). *)
val create : ('a -> 'a -> int) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

(** [peek t] is the root without removing it.  Raises [Not_found] if empty. *)
val peek : 'a t -> 'a

(** [pop t] removes and returns the root.  Raises [Not_found] if empty. *)
val pop : 'a t -> 'a

(** [copy t] an independent heap with the same elements; only the live
    elements are cloned, never stale slots of the backing array. *)
val copy : 'a t -> 'a t

(** [to_sorted_list t] drains a copy of [t] in ascending order. *)
val to_sorted_list : 'a t -> 'a list

(** [of_list cmp xs] builds a heap from [xs]. *)
val of_list : ('a -> 'a -> int) -> 'a list -> 'a t

(** [iter f t] applies [f] to every element in unspecified order. *)
val iter : ('a -> unit) -> 'a t -> unit
