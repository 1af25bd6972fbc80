type result = Bounded.result = {
  report : Report.t;
  visited_eunits : int;
  stopped_early : bool;
}

let eps = Prob.eps

(* The paper's decide_result: the top-k set is proven once the unvisited
   mass UB cannot lift any tuple past LB_k, the k-th highest lower bound
   ([0.] with fewer than k candidates), and at most k candidates can still
   reach LB_k (a candidate's best possible probability is lb + UB). *)
let proven ~k acc ~unvisited =
  let lb_k = Answer.kth_prob acc k in
  unvisited <= lb_k +. eps
  &&
  let survivors = ref 0 in
  try
    Answer.iter
      (fun _ p ->
        if p +. unvisited > lb_k +. eps then begin
          incr survivors;
          if !survivors > k then raise Exit
        end)
      acc;
    true
  with Exit -> false

let run ?strategy ?seed ?use_memo ?metrics ~k ctx q ms =
  if k <= 0 then invalid_arg "Topk.run: k must be positive";
  Bounded.run ~scope:"topk" ?strategy ?seed ?use_memo ?metrics
    ~stop:(proven ~k)
    ~finish:(fun acc ->
      let answer = Answer.create (Answer.output acc) in
      List.iter (fun (t, p) -> Answer.add answer t p) (Answer.top_k acc k);
      answer)
    ctx q ms
