(** Deterministic generator for the synthetic TPC-H-style purchase-order
    source instance.

    The paper uses TPC-H's dbgen (100 MB, 1M tuples, 8 relations, 46
    attributes).  This module re-creates the same schema shape at
    configurable scale; DESIGN.md documents the substitution.  Constants
    referenced by the Table III workload (["335-1736"], ["Mary"], ["ABC"],
    ["Central"], ["00001"], …) are planted with fixed selectivities so all
    ten queries have non-trivial intermediate and final results. *)

(** The 8-relation, 46-attribute source schema, named ["TPCH"]. *)
val schema : Urm_relalg.Schema.t

(** [generate ~seed ~scale ()] builds a fully populated catalog.  Equal
    seeds and scales produce identical instances. *)
val generate : ?seed:int -> scale:float -> unit -> Urm_relalg.Catalog.t

(** Scale used by the default experiment configuration. *)
val default_scale : float

(** Planted workload constants, exposed so tests and workload definitions
    stay in sync with the generator: [phone_hot = "335-1736"],
    [person_hot = "Mary"], [company_hot = "ABC"], [street_hot = "Central"],
    [part_hot = "00001"], [order_hot = "00001"]. *)
val phone_hot : string

val person_hot : string
val company_hot : string
val street_hot : string
val part_hot : string
val order_hot : string

(** [pad5 n] is the zero-padded string key form used for part and order
    numbers (["00001"] for 1). *)
val pad5 : int -> string
