(* The program under test in a process of its own, so that its peak
   memory and CPU time are its own and not the benchmark's (the client,
   the answer checks, the replica and the oracle stay in the benchmark
   process).

   [spawn kind] re-executes this binary as [main.exe --child KIND]:
   [server] runs one [Server] with the default configuration, [router] a
   shard [Router] over two worker processes.  The child announces
   [PERFBENCH_PORT <port> <worker pids...>] on its stdout and then answers
   one-line commands read from its stdin:

   - [stats N]: the server's [phase.request] timer, ["<calls> <seconds>"],
     once it has recorded more than [N] requests (or after 50 ms);
   - [compact]: runs [Gc.compact ()], answers [ok].

   End of input (the benchmark closed the pipe, or died) stops the
   program gracefully and ends the child. *)

module Server = Urm_service.Server
module Router = Urm_shard.Router
module Metrics = Urm_obs.Metrics

type t = { pid : int; port : int; workers : int list; cmd : out_channel; reply : in_channel }

let announce = "PERFBENCH_PORT"

(* ------------------------------------------------------------------ *)
(* The child side *)

let serve_commands ~stop =
  let timer = Metrics.timer (Metrics.scope Metrics.global "service") "phase.request" in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> stop ()
    | line when String.starts_with ~prefix:"stats " line ->
      (* Sleeps between looks, leaving the CPU to the server's worker. *)
      let n = int_of_string (String.sub line 6 (String.length line - 6)) in
      let deadline = Unix.gettimeofday () +. 0.05 in
      while Metrics.calls timer <= n && Unix.gettimeofday () < deadline do
        Thread.delay 0.0001
      done;
      Printf.printf "%d %.17g\n%!" (Metrics.calls timer) (Metrics.elapsed timer);
      loop ()
    | "compact" ->
      Gc.compact ();
      print_endline "ok";
      loop ()
    | _ ->
      print_endline "?";
      loop ()
  in
  loop ()

let run_child kind =
  (* SIGINT at a terminal reaches the whole process group; the benchmark
     decides when the program stops. *)
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  let ready port workers =
    Printf.printf "%s %s\n%!" announce (String.concat " " (List.map string_of_int (port :: workers)))
  in
  (match kind with
  | "server" ->
    let s = Server.start { Server.default_config with port = 0 } in
    ready (Server.port s) [];
    serve_commands ~stop:(fun () ->
        Server.stop s;
        Server.wait s)
  | "router" -> (
    match Router.start { Router.default_config with port = 0; shards = 2 } with
    | Error m ->
      prerr_endline ("perfbench: router start: " ^ m);
      exit 1
    | Ok r ->
      ready (Router.port r) (Router.worker_pids r);
      serve_commands ~stop:(fun () ->
          Router.stop r;
          Router.wait r))
  | other ->
    prerr_endline ("perfbench: unknown child " ^ other);
    exit 2);
  exit 0

(* ------------------------------------------------------------------ *)
(* The benchmark side *)

let spawn kind =
  let child_in, cmd_w = Unix.pipe ~cloexec:true () in
  let reply_r, child_out = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--child"; kind |] child_in child_out Unix.stderr in
  Unix.close child_in;
  Unix.close child_out;
  let cmd = Unix.out_channel_of_descr cmd_w and reply = Unix.in_channel_of_descr reply_r in
  let rec await () =
    match input_line reply with
    | exception End_of_file -> failwith ("perfbench: the " ^ kind ^ " child ended before announcing its port")
    | line -> (
      match String.split_on_char ' ' line with
      | tag :: port :: workers when tag = announce ->
        { pid; port = int_of_string port; workers = List.map int_of_string workers; cmd; reply }
      | _ -> await ())
  in
  await ()

let ask c line =
  output_string c.cmd (line ^ "\n");
  flush c.cmd;
  input_line c.reply

(* The server's request timer, (requests recorded, their total seconds),
   once it has recorded more than [after] requests: the server records a
   request just after its reply was written. *)
let stats ?(after = -1) c = Scanf.sscanf (ask c (Printf.sprintf "stats %d" after)) "%d %f" (fun n s -> (n, s))
let compact c = ignore (ask c "compact")

(* Closes the command pipe, so the program drains and the child exits,
   and waits for it. *)
let stop c =
  close_out_noerr c.cmd;
  close_in_noerr c.reply;
  ignore (Unix.waitpid [] c.pid)

(* The program's processes: the child and its workers. *)
let pids c = c.pid :: c.workers
