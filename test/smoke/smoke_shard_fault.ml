(* Fault-injection smoke for the shard router (dune @smoke): SIGKILL the
   worker a query is placed on, mid-query, and assert that every in-flight reply is either a
   correct answer (the router retried against the respawned worker) or
   the typed [shard_unavailable] error — never a crash, never a wrong
   answer.  Then commit a mutation, kill that query's worker again, and
   check that the replacement's replayed state (session open + mutation
   log) still answers byte-identically.

   Exit code 0 on success, 1 with a diagnostic on any failure. *)

module Json = Urm_util.Json
module Client = Urm_service.Client
module Router = Urm_shard.Router

(* Workers are this very binary, re-executed. *)
let () = Urm_shard.Launcher.exec_if_worker ()

let failures = ref 0

let check label ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "shard-fault: FAIL %s\n%!" label
  end

let member name json = Option.value ~default:Json.Null (Json.member name json)

let answer_key json =
  Json.to_string
    (Json.Obj
       [ ("answers", member "answers" json); ("null", member "null_prob" json) ])

let seed = 5
let scale = 0.005
let h = 6
let session = ("session", Json.Str "fault")

let q1_basic =
  [ session; ("query", Json.Str "Q1"); ("algorithm", Json.Str "basic") ]

(* The pid of the worker [q1_basic] is placed on: ask it once more under
   an [answers] limit no earlier call used (placement ignores the limit,
   the answer cache does not), and see which shard's cache missed. *)
let placed_pid c router ~answers =
  let misses () =
    match Client.call c ~op:"metrics" [] with
    | Ok m -> (
      match member "shards" m with
      | Json.Arr per_shard ->
        List.map
          (fun e -> member "miss" (member "cache" (member "metrics" e)))
          per_shard
      | _ -> [])
    | Error _ -> []
  in
  let before = misses () in
  ignore
    (Client.call c ~op:"query"
       (q1_basic @ [ ("answers", Json.Num (float_of_int answers)) ]));
  let after = misses () in
  let pids = Router.worker_pids router in
  match
    List.filteri
      (fun i _ -> List.nth_opt before i <> List.nth_opt after i)
      pids
  with
  | [ pid ] -> Some pid
  | _ -> None

let () =
  match Router.start { Router.default_config with shards = 2 } with
  | Error m ->
    Printf.eprintf "shard-fault: cannot start the router: %s\n%!" m;
    exit 1
  | Ok router ->
    let port = Router.port router in
    let c = Client.connect ~framed:true ~port () in
    (match
       Client.call c ~op:"open-session"
         [
           session;
           ("target", Json.Str "Excel");
           ("seed", Json.Num (float_of_int seed));
           ("scale", Json.Num scale);
           ("h", Json.Num (float_of_int h));
         ]
     with
    | Ok _ -> ()
    | Error (code, m) ->
      Printf.eprintf "shard-fault: open-session: %s: %s\n%!" code m;
      exit 1);
    let baseline =
      match Client.call c ~op:"query" q1_basic with
      | Ok reply -> answer_key reply
      | Error (code, m) ->
        Printf.eprintf "shard-fault: baseline query: %s: %s\n%!" code m;
        exit 1
    in

    (* Phase 1: SIGKILL the query's worker while queries are in flight. *)
    let initial_pids = Router.worker_pids router in
    check "two workers spawned" (List.length initial_pids = 2);
    let target = placed_pid c router ~answers:7 in
    check "the query's worker found" (target <> None);
    let killed = ref false in
    let killer =
      Thread.create
        (fun () ->
          Thread.delay 0.05;
          match target with
          | Some pid ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            killed := true
          | None -> ())
        ()
    in
    let deadline = Unix.gettimeofday () +. 30. in
    let recovered = ref false in
    while (not !recovered) && Unix.gettimeofday () < deadline do
      (match Client.call c ~op:"query" q1_basic with
      | Ok reply ->
        check "in-flight answer is correct"
          (String.equal (answer_key reply) baseline);
        if !killed then recovered := true
      | Error ("shard_unavailable", _) ->
        (* The typed degradation — acceptable while the replacement boots. *)
        ()
      | Error (code, m) ->
        check (Printf.sprintf "unexpected error during fault: %s: %s" code m)
          false);
      Thread.delay 0.02
    done;
    Thread.join killer;
    check "a correct answer after the kill" !recovered;
    let restart_deadline = Unix.gettimeofday () +. 30. in
    while Router.restarts router < 1 && Unix.gettimeofday () < restart_deadline do
      Thread.delay 0.1
    done;
    check "the dead worker was respawned" (Router.restarts router >= 1);

    (* Phase 2: mutate, capture the post-mutation answer, kill another
       worker, and make sure the replayed replacement still agrees —
       the mutation log survived the crash. *)
    (match
       Client.call c ~op:"mutate"
         [
           session;
           ( "mutations",
             Json.Arr
               [
                 Json.Obj
                   [
                     ("op", Json.Str "reweight");
                     ("mapping", Json.Num 0.);
                     ("prob", Json.Num 0.01);
                   ];
               ] );
         ]
     with
    | Ok reply -> check "mutation committed" (member "epoch" reply = Json.Num 1.)
    | Error (code, m) ->
      check (Printf.sprintf "post-restart mutate: %s: %s" code m) false);
    let mutated =
      match Client.call c ~op:"query" q1_basic with
      | Ok reply -> answer_key reply
      | Error (code, m) ->
        check (Printf.sprintf "post-mutation query: %s: %s" code m) false;
        ""
    in
    (match placed_pid c router ~answers:8 with
    | Some pid -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    | None -> check "the query's worker for the second kill" false);
    let replay_deadline = Unix.gettimeofday () +. 30. in
    let replayed = ref false in
    while (not !replayed) && Unix.gettimeofday () < replay_deadline do
      (match Client.call c ~op:"query" q1_basic with
      | Ok reply when String.equal (answer_key reply) mutated -> replayed := true
      | Ok reply ->
        check "replayed state answers byte-identically"
          (String.equal (answer_key reply) mutated)
      | Error ("shard_unavailable", _) -> ()
      | Error (code, m) ->
        check (Printf.sprintf "unexpected error after second kill: %s: %s" code m)
          false);
      Thread.delay 0.02
    done;
    check "post-replay answers match the committed mutation" !replayed;
    check "both kills produced restarts" (Router.restarts router >= 2);

    (match Client.call c ~op:"shutdown" [] with
    | Ok bye -> check "drain acknowledged" (member "draining" bye = Json.Bool true)
    | Error (code, m) -> check (Printf.sprintf "shutdown: %s: %s" code m) false);
    Client.close c;
    Router.wait router;
    check "every worker reaped" (Router.worker_pids router = []);

    if !failures = 0 then print_endline "smoke: shard fault-injection OK"
    else begin
      Printf.eprintf "shard-fault: %d failure(s)\n%!" !failures;
      exit 1
    end
