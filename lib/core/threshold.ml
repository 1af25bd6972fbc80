type result = Bounded.result = {
  report : Report.t;
  visited_eunits : int;
  stopped_early : bool;
}

let eps = Prob.eps

(* Decided: no unseen tuple can still reach τ (the unvisited mass UB is
   below it), and every candidate is either in (lb ≥ τ) or out (even
   lb + UB falls short of τ). *)
let decided ~tau acc ~unvisited =
  unvisited < tau -. eps
  &&
  try
    Answer.iter
      (fun _ p -> if p < tau -. eps && p +. unvisited >= tau -. eps then raise Exit)
      acc;
    true
  with Exit -> false

let run ?strategy ?seed ?use_memo ?metrics ~tau ctx q ms =
  if tau <= 0. || tau > 1. then invalid_arg "Threshold.run: tau must be in (0, 1]";
  Bounded.run ~scope:"threshold" ?strategy ?seed ?use_memo ?metrics
    ~stop:(decided ~tau)
    ~finish:(fun acc ->
      let answer = Answer.create (Answer.output acc) in
      Answer.iter (fun t p -> if p >= tau -. eps then Answer.add answer t p) acc;
      answer)
    ctx q ms
