module Json = Urm_util.Json
module Answer = Urm.Answer

(* Signatures are hash-consed as paths in a trie: node 0 is the empty
   signature and node k extends [parent.(k)] by the part [part.(k)], so a
   tuple's whole signature is the one node it has reached and equal
   signatures are equal nodes.  Steps match on the exact bits of the
   probability (the stdlib hash agrees: bit-equal floats hash equal). *)
module Step = Hashtbl.Make (struct
  type t = int * int * float (* parent node, unit, probability *)

  let equal (a, u, p) (b, v, q) =
    a = b && u = v
    && Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float q)

  let hash = Hashtbl.hash
end)

type trie = {
  steps : int Step.t;
  mutable parent : int array;
  mutable part : (int * float) array;
  mutable nodes : int;
}

let grow a n fill =
  if n < Array.length a then a
  else
    let b = Array.make (max 16 (2 * n)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

let step tr node u p =
  match Step.find_opt tr.steps (node, u, p) with
  | Some k -> k
  | None ->
    let k = tr.nodes in
    tr.parent <- grow tr.parent k 0;
    tr.part <- grow tr.part k (min_int, 0.);
    tr.parent.(k) <- node;
    tr.part.(k) <- (u, p);
    tr.nodes <- k + 1;
    Step.add tr.steps (node, u, p) k;
    k

(* A unit adds to a wire tuple more than once only when the wire merges
   two of its tuples ({!Protocol.wire_value}); those parts keep the
   unit's [Answer.to_list] order (probability descending), so the merged
   bucket does not depend on hash-table layout.  Equal probabilities add
   the same bits in either order. *)
let rec extend tr node u p =
  let v, q = tr.part.(node) in
  if v = u && Float.compare q p < 0 then
    step tr (extend tr tr.parent.(node) u p) v q
  else step tr node u p

let rec signature tr node acc =
  if node = 0 then acc else signature tr tr.parent.(node) (tr.part.(node) :: acc)

let num i = Json.Num (float_of_int i)
let part (u, p) = Json.Arr [ num u; Json.Num p ]

let encode ~output ~lo answers =
  let tr =
    {
      steps = Step.create 16;
      parent = [| 0 |];
      part = [| (min_int, 0.) |];
      nodes = 1;
    }
  in
  (* [index]'s bucket ids are dense first-seen indices of the wire tuples;
     [keys] and [at] (the tuple's trie node) are indexed by them. *)
  let index = Answer.create output and keys = ref [||] and at = ref [||] in
  let nulls =
    Seq.fold_left
      (fun (u, nulls) answer ->
        Answer.iter
          (fun tuple p ->
            let key = Array.map Protocol.wire_value tuple in
            let id = Answer.add_id index key 0. in
            keys := grow !keys id [||];
            at := grow !at id 0;
            !keys.(id) <- key;
            !at.(id) <- extend tr !at.(id) u p)
          answer;
        (u + 1, (u, Answer.null_prob answer) :: nulls))
      (lo, []) answers
    |> snd |> List.rev
  in
  let n = Answer.size index in
  (* One group per reached node, in node order; tuples in first-seen
     order within a group. *)
  let members = Array.make tr.nodes [] in
  for id = n - 1 downto 0 do
    members.(!at.(id)) <- !keys.(id) :: members.(!at.(id))
  done;
  let tuple_json tuple =
    Json.Arr (Array.to_list (Array.map Protocol.value_to_json tuple))
  in
  let groups = ref [] in
  for node = tr.nodes - 1 downto 1 do
    if members.(node) <> [] then
      groups :=
        Json.Obj
          [
            ("parts", Json.Arr (List.map part (signature tr node [])));
            ("tuples", Json.Arr (List.map tuple_json members.(node)));
          ]
        :: !groups
  done;
  [
    ("output", Json.Arr (List.map (fun c -> Json.Str c) output));
    ("null", Json.Arr (List.map part nulls));
    ("groups", Json.Arr !groups);
  ]

let malformed what = failwith ("malformed partial reply: " ^ what)

(* Decodes a part list, checking the ascending unit order the
   bit-identity argument rests on. *)
let parts_of = function
  | Some (Json.Arr items) ->
    let last = ref min_int in
    List.map
      (function
        | Json.Arr [ Json.Num u; Json.Num p ] ->
          let u = int_of_float u in
          if u < !last then malformed "parts out of unit order";
          last := u;
          p
        | _ -> malformed "part")
      items
  | _ -> malformed "parts"

let merge_into answer reply =
  (match Json.member "groups" reply with
  | Some (Json.Arr groups) ->
    List.iter
      (fun group ->
        match
          (parts_of (Json.member "parts" group), Json.member "tuples" group)
        with
        | first :: rest, Some (Json.Arr tuples) ->
          let rest = Array.of_list rest in
          List.iter
            (function
              | Json.Arr vs ->
                let tuple =
                  Array.of_list (List.map Protocol.value_of_json vs)
                in
                let id = Answer.add_id answer tuple first in
                Array.iter (Answer.bump answer id) rest
              | _ -> malformed "tuple")
            tuples
        | _ -> malformed "group")
      groups
  | _ -> malformed "groups");
  List.iter (Answer.add_null answer) (parts_of (Json.member "null" reply))

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
