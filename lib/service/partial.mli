(** Grouped partial answers: the wire form in which a worker returns the
    per-unit answers of one fan-out slot (a contiguous chunk of the unit
    list: one unit per mapping for basic, per representative for
    q-sharing, per distinct e-unit for e-basic and e-MQO), and the
    router's merge of them.

    {v
    {"output": [label, …],
     "null":   [[i, θᵢ], …],
     "groups": [{"parts": [[i, p], …], "tuples": [[v, …], …]}, …]}
    v}

    Each tuple of the slot appears once.  Its {e signature} is the
    ascending list of [(unit index, probability)] additions the slot's
    units make to its bucket; tuples with bit-identical signatures share a
    group.  On Q4 every mapping yields the same tuples with its own
    probability, so a basic slot is one group, and the reply is O(answers)
    rather than O(units × answers).

    Bit-identity: merging replies in ascending slot order, and within a
    group applying the parts in order to each tuple ({!Urm.Answer.add_id}
    then {!Urm.Answer.bump}), gives every bucket exactly the sequence of
    float additions a single process makes — unit by unit, ascending — so
    no regrouping can change a last bit.  θ parts are added in ascending
    unit order the same way. *)

val encode :
  output:string list ->
  lo:int ->
  Urm.Answer.t Seq.t ->
  (string * Urm_util.Json.t) list
(** [encode ~output ~lo answers] the ["output"], ["null"] and ["groups"]
    fields for units [lo, lo + 1, …], whose answers [answers] yields in
    ascending unit order (each is consumed before the next is forced).
    Tuples are grouped as the router will rebuild them
    ({!Protocol.wire_value}): two tuples that only the wire makes equal
    share one signature, their same-unit additions in
    {!Urm.Answer.to_list} order. *)

val merge : Urm_util.Json.t list -> Urm.Answer.t
(** [merge replies] the answer over the first reply's output, with every
    reply's groups and then θ parts applied, replies taken in the given
    (ascending slot) order.  Raises [Failure] on an empty list, a
    malformed reply, or parts that are not in ascending unit order. *)
