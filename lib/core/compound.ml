open Urm_relalg

type t =
  | Query of Query.t
  | Union of t * t
  | Intersect of t * t
  | Except of t * t

let rec leaves = function
  | Query q -> [ q ]
  | Union (a, b) | Intersect (a, b) | Except (a, b) -> leaves a @ leaves b

let rec pp ppf = function
  | Query q -> Format.fprintf ppf "(%s)" q.Query.name
  | Union (a, b) -> Format.fprintf ppf "(%a ∪ %a)" pp a pp b
  | Intersect (a, b) -> Format.fprintf ppf "(%a ∩ %a)" pp a pp b
  | Except (a, b) -> Format.fprintf ppf "(%a ∖ %a)" pp a pp b

let arity q = List.length (Reformulate.output_header q)

let validate c =
  match leaves c with
  | [] -> invalid_arg "Compound.validate: no member queries"
  | first :: rest ->
    let a = arity first in
    List.iter
      (fun q ->
        if arity q <> a then
          invalid_arg
            (Printf.sprintf "Compound.validate: %s has arity %d, expected %d"
               q.Query.name (arity q) a))
      rest

(* Tuple sets as hash tables keyed by the tuple arrays. *)
module Tset = struct
  type t = (Value.t array, unit) Hashtbl.t

  let of_list l : t =
    let h = Hashtbl.create (max 16 (List.length l)) in
    List.iter (fun t -> Hashtbl.replace h t ()) l;
    h

  let union (a : t) (b : t) : t =
    let out = Hashtbl.copy a in
    Hashtbl.iter (fun k () -> Hashtbl.replace out k ()) b;
    out

  let inter (a : t) (b : t) : t =
    let out = Hashtbl.create 16 in
    Hashtbl.iter (fun k () -> if Hashtbl.mem b k then Hashtbl.replace out k ()) a;
    out

  let diff (a : t) (b : t) : t =
    let out = Hashtbl.create 16 in
    Hashtbl.iter (fun k () -> if not (Hashtbl.mem b k) then Hashtbl.replace out k ()) a;
    out
end

let run (ctx : Ctx.t) c ms =
  validate c;
  let members = leaves c in
  let ctrs = Eval.fresh_counters () in
  (* Group mappings by the vector of member source-query keys: mappings in
     one group give every member the same source query, hence the same
     compound answer. *)
  let sq_of m q = Reformulate.source_query ctx.target q m in
  let groups, rewrite =
    Urm_util.Timer.time (fun () ->
        Ptree.partition_by_labels
          (fun m ->
            String.concat "\x00"
              (List.map (fun q -> Reformulate.key (sq_of m q)) members))
          ms)
  in
  (* Each distinct member source query evaluates once across all groups. *)
  let cache : (string, Tset.t) Hashtbl.t = Hashtbl.create 32 in
  let member_set m q =
    let sq = sq_of m q in
    let key = Reformulate.key sq in
    match Hashtbl.find_opt cache key with
    | Some set -> set
    | None ->
      let rel =
        match sq.Reformulate.body with
        | Reformulate.Expr e -> Some (Ctx.eval ~ctrs ctx e)
        | Reformulate.Unsatisfiable | Reformulate.Trivial -> None
      in
      let tuples =
        Reformulate.result_tuples sq ~factor:(Reformulate.factor ctx.catalog sq) rel
      in
      let set = Tset.of_list tuples in
      Hashtbl.replace cache key set;
      set
  in
  let header = Reformulate.output_header (List.hd members) in
  let acc = Answer.create header in
  let (), evaluate =
    Urm_util.Timer.time (fun () ->
        List.iter
          (fun (_, group) ->
            let m = List.hd group in
            let mass =
              Answer.mass (Array.of_list (List.map (fun m -> m.Mapping.prob) group))
            in
            let rec eval_set = function
              | Query q -> member_set m q
              | Union (a, b) -> Tset.union (eval_set a) (eval_set b)
              | Intersect (a, b) -> Tset.inter (eval_set a) (eval_set b)
              | Except (a, b) -> Tset.diff (eval_set a) (eval_set b)
            in
            let set = eval_set c in
            if Hashtbl.length set = 0 then List.iter (Answer.add_null acc) mass
            else Hashtbl.iter (fun tuple () -> Answer.add_exact acc tuple mass) set)
          groups)
  in
  {
    Report.answer = acc;
    timings = { Report.rewrite; plan = 0.; evaluate; aggregate = 0. };
    source_operators = ctrs.Eval.operators;
    rows_produced = ctrs.Eval.rows_produced;
    groups = List.length groups;
    engine = Urm_relalg.Compile.engine_name (Ctx.engine ctx);
  }
