type mode = Estimate of float | Top of int | Above of float
type stop_reason = Converged | Deadline_reached

let stop_reason_name = function
  | Converged -> "converged"
  | Deadline_reached -> "deadline-reached"

type result = {
  mode : mode;
  report : Report.t;
  intervals : (Urm_relalg.Value.t array * (float * float)) list;
  null_interval : float * float;
  unvisited : float;
  units : int;
  stopped_early : bool;
  stop_reason : stop_reason;
  undecided : int;
}

let validate ?deadline mode =
  (match deadline with
  | Some d when not (d > 0.) -> invalid_arg "Approx: deadline must be positive"
  | _ -> ());
  match mode with
  | Estimate e when not (e >= 0.) -> invalid_arg "Approx: epsilon must be >= 0"
  | Top k when k <= 0 -> invalid_arg "Approx: k must be positive"
  | Above tau when not (tau > 0. && tau <= 1.) ->
    invalid_arg "Approx: tau must lie in (0, 1]"
  | _ -> ()

let run ?deadline ?(limit = max_int) ?(metrics = Urm_obs.Metrics.global) mode ctx
    q ms =
  validate ?deadline mode;
  let converged =
    match mode with
    | Estimate e -> fun _ ~unvisited -> unvisited <= 2. *. e
    | Top k -> Topk.proven ~k
    | Above tau -> Threshold.decided ~tau
  in
  let started = Urm_util.Timer.now () in
  let reason = ref Converged in
  let stop acc ~unvisited =
    if converged acc ~unvisited then true
    else
      match deadline with
      | Some d when Urm_util.Timer.now () -. started >= d ->
        reason := Deadline_reached;
        true
      | _ -> false
  in
  let r = Bounded.run ~scope:"approx" ~metrics ~stop ctx q ms in
  let cands = r.Bounded.report.Report.answer in
  (* The upper end rounds the exact lower bound plus the exact U once, so
     it is never below the exact probability's rounding. *)
  let upper e =
    Answer.round (Answer.mass (Array.of_list (e @ r.Bounded.unvisited)))
  in
  let unvisited = Answer.round r.Bounded.unvisited in
  (* Selecting the answer and bounding its shown tuples is the aggregate
     phase; [Answer.top_k]'s order (lower bound descending, then tuple) is
     the interval order. *)
  let (answer, intervals), aggregate =
    Urm_util.Timer.time (fun () ->
        let answer =
          match mode with
          | Estimate _ -> cands
          | Top k -> Topk.select ~k cands
          | Above tau -> Threshold.select ~tau cands
        in
        ( answer,
          List.map
            (fun (t, lo) -> (t, (lo, upper (Answer.exact_of cands t))))
            (Answer.top_k answer limit) ))
  in
  Urm_obs.Metrics.incr
    (Urm_obs.Metrics.counter
       (Urm_obs.Metrics.scope metrics "approx")
       ("stop." ^ stop_reason_name !reason));
  let rep = r.Bounded.report in
  {
    mode;
    report =
      { rep with Report.answer; timings = { rep.Report.timings with Report.aggregate } };
    intervals;
    null_interval = (Answer.null_prob cands, upper (Answer.null_exact cands));
    unvisited;
    units = r.Bounded.visited_eunits;
    stopped_early = r.Bounded.stopped_early;
    stop_reason = !reason;
    undecided =
      (match mode with
      | Above tau -> Threshold.undecided ~tau cands ~unvisited
      | Estimate _ | Top _ -> 0);
  }

let fields r =
  let open Urm_util.Json in
  let num i = Num (float_of_int i) in
  let bounds (lo, hi) = [ ("lo", Num lo); ("hi", Num hi) ] in
  let tuple t = ("tuple", Arr (Array.to_list (Array.map Report.value_to_json t))) in
  (match r.mode with
  | Estimate _ -> [ ("mode", Str "estimate") ]
  | Top k -> [ ("mode", Str "topk"); ("k", num k) ]
  | Above tau ->
    [ ("mode", Str "threshold"); ("tau", Num tau); ("undecided", num r.undecided) ])
  @ [
      ("shapes", num r.units);
      ("stop_reason", Str (stop_reason_name r.stop_reason));
      ("stopped_early", Bool r.stopped_early);
      ("unseen_hi", Num r.unvisited);
      ("null_interval", Obj (bounds r.null_interval));
      ("size", num (Answer.size r.report.Report.answer));
      ( "answers",
        Arr
          (List.map (fun (t, (lo, _)) -> Obj [ tuple t; ("prob", Num lo) ]) r.intervals)
      );
      ("intervals", Arr (List.map (fun (t, b) -> Obj (tuple t :: bounds b)) r.intervals));
    ]
