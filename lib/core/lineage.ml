open Urm_relalg

type entry = {
  tuple : Value.t array;
  prob : float;
  support : int list;
}

type t = {
  output : string list;
  entries : entry list;
  null_prob : float;
  null_support : int list;
}

let run (ctx : Ctx.t) q ms =
  (* Group mappings by source query (as e-basic does), evaluate each
     distinct query once, then attribute its tuples to every mapping of the
     group. *)
  let groups : (string, Reformulate.t * Mapping.t list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let order = ref [] in
  List.iter
    (fun m ->
      let sq = Reformulate.source_query ctx.target q m in
      let key = Reformulate.key sq in
      match Hashtbl.find_opt groups key with
      | Some (_, members) -> members := m :: !members
      | None ->
        Hashtbl.add groups key (sq, ref [ m ]);
        order := key :: !order)
    ms;
  let answer = Answer.create (Reformulate.output_header q) in
  let support : (Value.t array, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let null_support = ref [] in
  List.iter
    (fun key ->
      let sq, members = Hashtbl.find groups key in
      let mass =
        Answer.mass (Array.of_list (List.map (fun m -> m.Mapping.prob) !members))
      in
      let ids = List.map (fun m -> m.Mapping.id) !members in
      let rel =
        match sq.Reformulate.body with
        | Reformulate.Expr e -> Some (Ctx.eval ctx e)
        | Reformulate.Unsatisfiable | Reformulate.Trivial -> None
      in
      let tuples =
        Reformulate.result_tuples sq ~factor:(Reformulate.factor ctx.catalog sq) rel
      in
      match tuples with
      | [] ->
        List.iter (Answer.add_null answer) mass;
        null_support := ids @ !null_support
      | _ ->
        List.iter
          (fun t ->
            Answer.add_exact answer t mass;
            match Hashtbl.find_opt support t with
            | Some ids' -> ids' := ids @ !ids'
            | None -> Hashtbl.replace support t (ref ids))
          tuples)
    (List.rev !order);
  {
    output = Answer.output answer;
    entries =
      List.map
        (fun (tuple, prob) ->
          let ids = !(Hashtbl.find support tuple) in
          { tuple; prob; support = List.sort_uniq Int.compare ids })
        (Answer.to_list answer);
    null_prob = Answer.null_prob answer;
    null_support = List.sort_uniq Int.compare !null_support;
  }

let support_of t tuple =
  match List.find_opt (fun e -> e.tuple = tuple) t.entries with
  | Some e -> e.support
  | None -> []

let pp ppf t =
  Format.fprintf ppf "@[<v>lineage over (%s):" (String.concat ", " t.output);
  List.iter
    (fun e ->
      Format.fprintf ppf "@,  (%s) : %.4f  ⟵ mappings {%s}"
        (String.concat ", " (Array.to_list (Array.map Value.to_string e.tuple)))
        e.prob
        (String.concat "," (List.map string_of_int e.support)))
    t.entries;
  if t.null_prob > 0. then
    Format.fprintf ppf "@,  θ : %.4f  ⟵ mappings {%s}" t.null_prob
      (String.concat "," (List.map string_of_int t.null_support));
  Format.fprintf ppf "@]"
