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

type merged = { query : Json.t; answer : Answer.t }

(* The merge in progress.  Tuples that arrive before any reply's
   ["output"] (which the answer is created from) wait in [pending]. *)
type state = {
  mutable query : Json.t;
  mutable answer : Answer.t option;
  mutable pending : (Urm_relalg.Value.t array * float list) list;
}

let sum_of c =
  let cs = ref [] in
  Json.items c (fun () -> cs := Json.number c :: !cs);
  List.rev !cs

let tuple_of c =
  let vs = ref [] in
  Json.items c (fun () -> vs := Protocol.value_of_json (Json.value c) :: !vs);
  Array.of_list (List.rev !vs)

let add st tuple cs =
  match st.answer with
  | None -> st.pending <- (tuple, cs) :: st.pending
  | Some a ->
    if Array.length tuple <> List.length (Answer.output a) then
      malformed "tuple arity";
    Answer.add_exact a tuple cs

let set_output st cols =
  match st.answer with
  | Some a -> if Answer.output a <> cols then malformed "output mismatch"
  | None ->
    st.answer <- Some (Answer.create cols);
    let pending = List.rev st.pending in
    st.pending <- [];
    List.iter (fun (tuple, cs) -> add st tuple cs) pending

(* One group: each tuple goes straight into the answer once ["p"] is
   known; tuples before it are held until it arrives. *)
let group st c =
  let p = ref None and held = ref [] and tuples = ref false in
  Json.fields c (function
    | "p" ->
      let cs = sum_of c in
      p := Some cs;
      List.iter (fun t -> add st t cs) (List.rev !held);
      held := []
    | "tuples" ->
      tuples := true;
      Json.items c (fun () ->
          let t = tuple_of c in
          match !p with Some cs -> add st t cs | None -> held := t :: !held)
    | _ -> ignore (Json.value c));
  if Option.is_none !p || not !tuples then malformed "group"

let result_into st ~first c =
  let output = ref false and groups = ref false and null = ref None in
  Json.fields c (function
    | "output" ->
      let cols = ref [] in
      Json.items c (fun () -> cols := Json.string c :: !cols);
      set_output st (List.rev !cols);
      output := true
    | "groups" ->
      Json.items c (fun () -> group st c);
      groups := true
    | "null" -> null := Some (sum_of c)
    | "query" when first -> st.query <- Json.value c
    | _ -> ignore (Json.value c));
  match (st.answer, !null) with
  | Some a, Some cs when !output && !groups -> List.iter (Answer.add_null a) cs
  | _ -> malformed (if !output && !groups then "null" else "output or groups")

let merge replies =
  if replies = [] then failwith "Partial.merge: no replies";
  let st = { query = Json.Null; answer = None; pending = [] } in
  (* Every decoded reply carried an output, so the answer exists. *)
  let rec each first = function
    | [] -> Ok { query = st.query; answer = Option.get st.answer }
    | text :: rest ->
      Result.bind
        (Protocol.decode_reply (result_into st ~first) text)
        (fun () -> each false rest)
  in
  each true replies
