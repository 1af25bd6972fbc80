(* End-to-end smoke test for the anytime [approx] service op (dune @smoke,
   part of @runtest): boot a server on an ephemeral loopback port, open a
   small fixed-seed workload session, and check that

   - the estimate mode converges, reports intervals, and every exact
     answer probability (from a "query"/basic run of the same query) falls
     inside the matching interval with no slack, or below the unseen bound
     for a tuple the pass never reached,
   - the top-k and threshold modes answer with their mode-specific fields,
   - an exact replay of an approx request is served from the answer cache
     ([cached] flips to true) with an otherwise identical payload, and a
     request differing only in its "answers" limit is not,
   - parameter validation rejects nonsense (ε < 0, a deadline ≤ 0) as a
     bad request.

   Exit code 0 on success, 1 with a diagnostic on any failure. *)

module Json = Urm_util.Json
module Client = Urm_service.Client
module Server = Urm_service.Server

let failures = ref 0

let check label ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "smoke-approx: FAIL %s\n%!" label
  end

let get_exn label = function
  | Ok v -> v
  | Error (code, msg) ->
    incr failures;
    Printf.eprintf "smoke-approx: FAIL %s: %s: %s\n%!" label code msg;
    Json.Null

let member name json = Option.value ~default:Json.Null (Json.member name json)
let str name json = match member name json with Json.Str s -> s | _ -> ""
let num name json = match member name json with Json.Num f -> f | _ -> Float.nan

let arr name json =
  match member name json with Json.Arr l -> l | _ -> []

(* tuple-as-text key for matching answers against intervals *)
let tuple_key json = Json.to_string (member "tuple" json)

let () =
  let server =
    Server.start
      { Server.default_config with port = 0; workers = 2; queue_depth = 16 }
  in
  let port = Server.port server in
  let c = Client.connect ~port () in
  let session = ("session", Json.Str "smoke-approx") in
  let opened =
    get_exn "open-session"
      (Client.call c ~op:"open-session"
         [
           session;
           ("target", Json.Str "Excel");
           ("seed", Json.Num 7.);
           ("scale", Json.Num 0.01);
           ("h", Json.Num 8.);
         ])
  in
  check "session created" (member "created" opened = Json.Bool true);

  (* Exact baseline for Q1 over the same session mappings. *)
  let exact =
    get_exn "query/basic"
      (Client.call c ~op:"query"
         [ session; ("query", Json.Str "Q1"); ("algorithm", Json.Str "basic") ])
  in

  (* Estimate mode: the bounded pass stops once the unvisited mass is at
     most 2ε, and each exact probability must sit inside its interval. *)
  let approx_params =
    [ session; ("query", Json.Str "Q1"); ("epsilon", Json.Num 0.05) ]
  in
  let est = get_exn "approx/estimate" (Client.call c ~op:"approx" approx_params) in
  check "estimate mode" (str "mode" est = "estimate");
  check "converged" (str "stop_reason" est = "converged");
  check "units visited" (num "shapes" est > 0.);
  check "unseen bound within 2ε" (num "unseen_hi" est <= 0.1);
  check "cold run" (member "cached" est = Json.Bool false);
  let intervals = arr "intervals" est in
  check "intervals present" (intervals <> []);
  List.iter
    (fun iv ->
      let lo = num "lo" iv and hi = num "hi" iv in
      check "interval well-formed" (0. <= lo && lo <= hi && hi <= 1.))
    intervals;
  let exact_answers = arr "answers" exact in
  check "baseline non-empty" (exact_answers <> []);
  List.iter
    (fun a ->
      let p = num "prob" a in
      match
        List.find_opt (fun iv -> String.equal (tuple_key iv) (tuple_key a)) intervals
      with
      | None -> check "unseen tuple below the unseen bound" (p <= num "unseen_hi" est)
      | Some iv -> check "exact prob inside interval" (num "lo" iv <= p && p <= num "hi" iv))
    exact_answers;
  let nlo = num "lo" (member "null_interval" est)
  and nhi = num "hi" (member "null_interval" est) in
  check "null interval covers exact null prob"
    (nlo <= num "null_prob" exact && num "null_prob" exact <= nhi);

  (* Replaying the identical request must come back from the answer cache
     with the same payload modulo the cached flag. *)
  let strip_cached json =
    match json with
    | Json.Obj fields ->
      Json.Obj (List.filter (fun (n, _) -> n <> "cached") fields)
    | other -> other
  in
  let replay = get_exn "approx replay" (Client.call c ~op:"approx" approx_params) in
  check "replay cached" (member "cached" replay = Json.Bool true);
  check "replay identical"
    (String.equal
       (Json.to_string (strip_cached est))
       (Json.to_string (strip_cached replay)));

  (* The "answers" limit is part of the cache key: a Q4 estimate (22,500
     tuples) asked for 1 answer and then for 50 must not replay the
     1-answer reply. *)
  let q4 limit =
    get_exn "approx/Q4"
      (Client.call c ~op:"approx"
         [ session; ("query", Json.Str "Q4"); ("answers", Json.Num limit) ])
  in
  let one = q4 1. in
  let fifty = q4 50. in
  check "answers:1 shows one tuple" (List.length (arr "answers" one) = 1);
  check "answers:50 is not the cached 1-answer reply"
    (member "cached" fifty = Json.Bool false);
  check "answers:50 shows 50 tuples" (List.length (arr "answers" fifty) = 50);
  check "answers:50 bounds 50 tuples" (List.length (arr "intervals" fifty) = 50);
  check "same answer size" (num "size" one = num "size" fifty);

  (* Top-k and threshold modes. *)
  let topk =
    get_exn "approx/topk"
      (Client.call c ~op:"approx"
         (approx_params @ [ ("k", Json.Num 3.) ]))
  in
  check "topk mode" (str "mode" topk = "topk");
  check "topk k echoed" (num "k" topk = 3.);
  check "topk answer bounded" (List.length (arr "answers" topk) <= 3);
  check "topk stopped_early declared"
    (match member "stopped_early" topk with Json.Bool _ -> true | _ -> false);

  let thresh =
    get_exn "approx/threshold"
      (Client.call c ~op:"approx"
         (approx_params @ [ ("tau", Json.Num 0.3) ]))
  in
  check "threshold mode" (str "mode" thresh = "threshold");
  check "threshold undecided counted" (num "undecided" thresh >= 0.);
  List.iter
    (fun iv -> check "threshold answers clear tau" (num "lo" iv >= 0.3))
    (arr "intervals" thresh);

  (* Parameter validation surfaces as bad_request, not a dead worker. *)
  List.iter
    (fun (label, param) ->
      match Client.call c ~op:"approx" [ session; ("query", Json.Str "Q1"); param ] with
      | Error ("bad_request", _) -> ()
      | Error (code, _) -> check (label ^ " rejected as bad_request, got " ^ code) false
      | Ok _ -> check (label ^ " rejected") false)
    [
      ("epsilon=-0.1", ("epsilon", Json.Num (-0.1)));
      ("deadline=0", ("deadline", Json.Num 0.));
    ];

  ignore (Client.call c ~op:"shutdown" []);
  Client.close c;
  Server.stop server;
  if !failures > 0 then begin
    Printf.eprintf "smoke-approx: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "smoke-approx: OK"
