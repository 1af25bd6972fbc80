(** Reference oracle for {!Urm_bipartite.Murty.k_best}: Murty's partition
    with a full Hungarian solve of every subproblem.  Same contract; the
    tests require the same score bits and, among untied scores, the same
    pair sets. *)
val k_best :
  weights:float array array -> k:int -> Urm_bipartite.Murty.assignment list
