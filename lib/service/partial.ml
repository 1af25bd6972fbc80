module Json = Urm_util.Json
module Answer = Urm.Answer

let sum cs = Json.Arr (List.map (fun c -> Json.Num c) cs)

let encode ~output answer =
  (* Tuples keyed as the router will rebuild them: those that only the
     wire folds together just sum. *)
  let wire = Answer.create output in
  Answer.iter_exact
    (fun tuple cs ->
      Answer.add_exact wire (Array.map Protocol.wire_value tuple) cs)
    answer;
  (* Groups keyed by the bits of their canonical subtotal, in first-seen
     order. *)
  let groups = Hashtbl.create 16 and order = ref [] in
  Answer.iter_exact
    (fun tuple cs ->
      let key = List.map Int64.bits_of_float cs in
      match Hashtbl.find_opt groups key with
      | Some members -> members := tuple :: !members
      | None ->
        let members = ref [ tuple ] in
        Hashtbl.add groups key members;
        order := (cs, members) :: !order)
    wire;
  let tuple_json tuple =
    Json.Arr (Array.to_list (Array.map Protocol.value_to_json tuple))
  in
  [
    ("output", Json.Arr (List.map (fun c -> Json.Str c) output));
    ("null", sum (Answer.null_exact answer));
    ( "groups",
      Json.Arr
        (List.rev_map
           (fun (cs, members) ->
             Json.Obj
               [
                 ("p", sum cs);
                 ("tuples", Json.Arr (List.rev_map tuple_json !members));
               ])
           !order) );
  ]

let malformed what = failwith ("malformed partial reply: " ^ what)

let sum_of = function
  | Some (Json.Arr items) ->
    List.map (function Json.Num c -> c | _ -> malformed "component") items
  | _ -> malformed "subtotal"

let merge_into answer reply =
  (match Json.member "groups" reply with
  | Some (Json.Arr groups) ->
    List.iter
      (fun group ->
        match (sum_of (Json.member "p" group), Json.member "tuples" group) with
        | cs, Some (Json.Arr tuples) ->
          List.iter
            (function
              | Json.Arr vs ->
                Answer.add_exact answer
                  (Array.of_list (List.map Protocol.value_of_json vs))
                  cs
              | _ -> malformed "tuple")
            tuples
        | _ -> malformed "group")
      groups
  | _ -> malformed "groups");
  List.iter (Answer.add_null answer) (sum_of (Json.member "null" reply))

let merge replies =
  let output =
    match replies with
    | first :: _ -> (
      match Json.member "output" first with
      | Some (Json.Arr cols) -> List.map Json.to_str cols
      | _ -> malformed "output")
    | [] -> failwith "Partial.merge: no replies"
  in
  let answer = Answer.create output in
  List.iter (merge_into answer) replies;
  answer
