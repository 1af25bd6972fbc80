type t = {
  id : int;
  pairs : (string * string) list;
  by_target : (string, string) Hashtbl.t;
  prob : float;
  score : float;
}

let make ~id ~prob ~score pairs =
  let pairs = List.sort (fun (a, _) (b, _) -> String.compare a b) pairs in
  let by_target = Hashtbl.create (List.length pairs) in
  let sources = Hashtbl.create (List.length pairs) in
  List.iter
    (fun (t, s) ->
      if Hashtbl.mem by_target t then
        invalid_arg ("Mapping.make: duplicate target " ^ t);
      if Hashtbl.mem sources s then
        invalid_arg ("Mapping.make: duplicate source " ^ s);
      Hashtbl.add by_target t s;
      Hashtbl.add sources s ())
    pairs;
  { id; pairs; by_target; prob; score }

let source_of m target = Hashtbl.find_opt m.by_target target
let targets m = List.map fst m.pairs
let size m = List.length m.pairs
let with_prob m prob = { m with prob }
let same_correspondences a b = a.pairs = b.pairs

let o_ratio a b =
  let sa = a.pairs and sb = b.pairs in
  if sa = [] && sb = [] then 1.
  else begin
    let inter = List.length (List.filter (fun p -> List.mem p sb) sa) in
    let union = List.length sa + List.length sb - inter in
    float_of_int inter /. float_of_int union
  end

let pp ppf m =
  Format.fprintf ppf "@[m%d (p=%.3f):" m.id m.prob;
  List.iter (fun (t, s) -> Format.fprintf ppf "@ (%s←%s)" t s) m.pairs;
  Format.fprintf ppf "@]"

let total_prob ms = List.fold_left (fun acc m -> acc +. m.prob) 0. ms
