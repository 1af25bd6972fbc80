open Urm_relalg

(* ------------------------------------------------------------------ *)
(* Base-leaf substitution.  An "occurrence" of a stored relation is one
   [Base] leaf naming it; self-joins instantiate the same relation under
   several [Rename] aliases, so occurrences are numbered per name in
   pre-order (left-to-right) — the numbering [subst_bases] replays. *)

let subst_bases f e =
  let counts = Hashtbl.create 4 in
  let rec go e =
    match e with
    | Algebra.Base n -> (
      let occ = Option.value ~default:0 (Hashtbl.find_opt counts n) in
      Hashtbl.replace counts n (occ + 1);
      match f n occ with Some e' -> e' | None -> e)
    | Algebra.Mat _ -> e
    | Algebra.Rename (p, inner) -> Algebra.Rename (p, go inner)
    | Algebra.Select (p, inner) -> Algebra.Select (p, go inner)
    | Algebra.Project (cs, inner) -> Algebra.Project (cs, go inner)
    | Algebra.Distinct inner -> Algebra.Distinct (go inner)
    | Algebra.Product (a, b) ->
      let a = go a in
      let b = go b in
      Algebra.Product (a, b)
    | Algebra.Join (p, a, b) ->
      let a = go a in
      let b = go b in
      Algebra.Join (p, a, b)
    | Algebra.Aggregate (a, inner) -> Algebra.Aggregate (a, go inner)
    | Algebra.GroupBy (ks, a, inner) -> Algebra.GroupBy (ks, a, go inner)
  in
  go e

(* ------------------------------------------------------------------ *)
(* Delta candidates for a monotone (SPJ/Distinct, non-aggregate) source
   query under an insert-only batch.

   With R_new = R_old ∪ ΔR per touched relation, the result over the new
   instance telescopes over the touched occurrences o_1 … o_p (pre-order):

     E(new) = E(old) ∪ ⋃_k E[ o_1…o_{k-1} ↦ new, o_k ↦ Δ, o_{k+1}…o_p ↦ old ]

   Each step expression pins every touched occurrence to a materialised
   version, so only the step's Δ leaf varies; untouched relations stay
   [Base] and resolve to the (identical) new catalog at execution.
   Selections and joins filter rows independently, so monotonicity holds
   for any predicate; aggregates are excluded by the caller (their values
   change rather than grow).  The union of the steps' target tuples is a
   superset of the answer's growth — subtracting the old tuple set yields
   exactly the new tuples. *)

let candidates (ctx : Urm.Ctx.t) (sq : Urm.Reformulate.t) ~factor ~old_of
    ~delta_of e =
  let touched = ref [] in
  let counts = Hashtbl.create 4 in
  let rec scan = function
    | Algebra.Base n ->
      let occ = Option.value ~default:0 (Hashtbl.find_opt counts n) in
      Hashtbl.replace counts n (occ + 1);
      if Option.is_some (delta_of n) then touched := (n, occ) :: !touched
    | e -> List.iter scan (Algebra.children e)
  in
  scan e;
  let touched = Array.of_list (List.rev !touched) in
  let rank = Hashtbl.create (Array.length touched) in
  Array.iteri (fun i pos -> Hashtbl.replace rank pos i) touched;
  let new_of n = Catalog.find ctx.Urm.Ctx.catalog n in
  let out = ref [] in
  Array.iteri
    (fun k (rel_k, _) ->
      let delta_k = Option.get (delta_of rel_k) in
      if not (Relation.is_empty delta_k) then begin
        let step =
          subst_bases
            (fun n occ ->
              match delta_of n with
              | None -> None
              | Some d -> (
                match Hashtbl.find_opt rank (n, occ) with
                | None -> None
                | Some j ->
                  if j < k then Some (Algebra.Mat (new_of n))
                  else if j = k then Some (Algebra.Mat d)
                  else Some (Algebra.Mat (old_of n))))
            e
        in
        let rel = Urm.Ctx.eval ctx step in
        out := Urm.Reformulate.result_tuples sq ~factor (Some rel) :: !out
      end)
    touched;
  List.concat (List.rev !out)
