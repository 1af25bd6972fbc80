(** The ten target queries of the paper's Table III.

    Constants reference the planted values of the {!Urm_tpch.Gen} instance
    (["335-1736"], ["Mary"], ["ABC"], ["Central"], ["00001"], priority 2,
    quantity 10).  Q1–Q5 target Excel, Q6–Q7 Noris, Q8–Q10 Paragon; the
    paper's default query is Q4. *)

val q1 : Urm.Query.t
val q2 : Urm.Query.t
val q3 : Urm.Query.t
val q4 : Urm.Query.t
val q5 : Urm.Query.t

(** All ten with their target schema, in order: [("Q1", excel, q1); …]. *)
val all : (string * Urm_relalg.Schema.t * Urm.Query.t) list

(** [by_name "Q4"].  Raises [Not_found] for unknown names. *)
val by_name : string -> Urm_relalg.Schema.t * Urm.Query.t

(** The paper's default query: Q4 with the Excel schema. *)
val default : Urm_relalg.Schema.t * Urm.Query.t
