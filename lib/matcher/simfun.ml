let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) (fun j -> j) in
    let curr = Array.make (lb + 1) 0 in
    for i = 1 to la do
      curr.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        curr.(j) <- min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit curr 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

let lev_sim a b =
  let ml = max (String.length a) (String.length b) in
  if ml = 0 then 1.
  else 1. -. (float_of_int (levenshtein a b) /. float_of_int ml)

let ngrams n s =
  let l = String.length s in
  if l < n then [ s ]
  else List.init (l - n + 1) (fun i -> String.sub s i n)

let set_of l =
  let h = Hashtbl.create (List.length l) in
  List.iter (fun x -> Hashtbl.replace h x ()) l;
  h

let jaccard a b =
  match (a, b) with
  | [], [] -> 1.
  | _ ->
    let sa = set_of a and sb = set_of b in
    let inter =
      Hashtbl.fold (fun k () acc -> if Hashtbl.mem sb k then acc + 1 else acc) sa 0
    in
    let union = Hashtbl.length sa + Hashtbl.length sb - inter in
    if union = 0 then 1. else float_of_int inter /. float_of_int union

let ngram_sim ~n a b = jaccard (ngrams n a) (ngrams n b)
