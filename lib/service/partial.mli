(** Partial answers: the wire form in which a worker returns the answer of
    one fan-out slot (a contiguous chunk of the unit list: one unit per
    mapping for basic, per partition for q-sharing, per distinct
    e-unit for e-basic and e-MQO), and the router's merge of them.

    {v
    {"output": [label, …],
     "null":   [c, …],
     "groups": [{"p": [c, …], "tuples": [[v, …], …]}, …]}
    v}

    Each tuple of the slot appears once, with its subtotal: the exact sum
    of the chunk's additions to its bucket, as the canonical component
    list of {!Urm.Answer.iter_exact}.  Tuples with bit-equal subtotals
    share a group.  On Q4 every mapping yields the same tuples, so a basic
    slot is one group, and the reply is O(answers), not O(units ×
    answers).  ["null"] is θ's subtotal the same way.

    Bit-identity: chunks partition the unit list, so the slots add the
    same multiset of floats to each bucket as a single process does, and
    {!Urm.Answer} sums exactly — replies merge to the single-process
    answer in any order. *)

val encode : output:string list -> Urm.Answer.t -> (string * Urm_util.Json.t) list
(** [encode ~output answer] the ["output"], ["null"] and ["groups"] fields
    of the slot whose answer is [answer].  Tuples are keyed as the router
    will rebuild them ({!Protocol.wire_value}), so two tuples that only
    the wire makes equal are sent as one, with the sum of their
    subtotals. *)

type merged = {
  query : Urm_util.Json.t;  (** the first reply's ["query"], [Null] if none *)
  answer : Urm.Answer.t;
}

val merge : string list -> (merged, string * string) result
(** [merge replies] decodes the worker reply documents ({!Protocol}
    envelopes around the fields of {!encode}) one at a time, streaming
    each group's tuples straight into one answer: no JSON tree is built.
    Fields may come in any order.  Every reply's subtotals are added, in
    any order, over the first reply's output.  The first
    ["ok": false] reply is [Error (code, message)] and the merge so far
    is discarded.  Raises [Failure] on an empty list or a malformed
    reply, including a tuple of the wrong arity and an output that
    differs from the first reply's. *)
