type result = Bounded.result = {
  report : Report.t;
  visited_eunits : int;
  stopped_early : bool;
  unvisited : float list;
}

let eps = Prob.eps

(* A candidate is in once lb ≥ τ, out once even lb + UB falls short of τ,
   and undecided in between. *)
let undecided ~tau acc ~unvisited =
  let n = ref 0 in
  Answer.iter
    (fun _ p -> if p < tau -. eps && p +. unvisited >= tau -. eps then incr n)
    acc;
  !n

(* Decided: no unseen tuple can still reach τ (the unvisited mass UB is
   below it), and every candidate is in or out. *)
let decided ~tau acc ~unvisited =
  unvisited < tau -. eps && undecided ~tau acc ~unvisited = 0

let select ~tau acc =
  let answer = Answer.create (Answer.output acc) in
  Answer.iter (fun t p -> if p >= tau -. eps then Answer.add answer t p) acc;
  answer

let run ?strategy ?seed ?use_memo ?metrics ~tau ctx q ms =
  if tau <= 0. || tau > 1. then invalid_arg "Threshold.run: tau must be in (0, 1]";
  let r =
    Bounded.run ~scope:"threshold" ?strategy ?seed ?use_memo ?metrics
      ~stop:(decided ~tau) ctx q ms
  in
  { r with report = { r.report with answer = select ~tau r.report.answer } }
