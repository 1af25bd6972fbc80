module Json = Urm_util.Json

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  framed : bool;
  mutable next_id : int;
}

let connect ?(host = "127.0.0.1") ?(framed = false) ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    framed;
    next_id = 1;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let transport_error = function
  | End_of_file -> "connection closed by server"
  | Sys_error msg -> msg
  | Unix.Unix_error (e, _, _) -> Unix.error_message e
  | exn -> Printexc.to_string exn

let read_frame c =
  match input_char c.ic with
  | exception (End_of_file | Sys_error _) -> Error "connection closed by server"
  | m when m <> Frame.magic -> Error "garbage where a frame was expected"
  | _ -> (
    match Frame.read_body c.ic with
    | Ok f -> Ok f
    | Error e -> Error (Frame.error_message e))

(* One framed exchange: write [frame], read frames until one [expect]
   accepts.  A server may volunteer [Credit] frames at any point (e.g.
   after a busy reject); exchanges that are not waiting for one skip
   them. *)
let frame_roundtrip c frame expect =
  match
    Frame.write c.oc frame;
    flush c.oc
  with
  | exception exn -> Error (transport_error exn)
  | () ->
    let rec loop () =
      match read_frame c with
      | Error _ as e -> e
      | Ok f -> (
        match expect f with
        | Some v -> Ok v
        | None -> (
          match f with
          | Frame.Credit _ -> loop ()
          | Frame.Proto_error (code, message) ->
            Error (Printf.sprintf "protocol error %s: %s" code message)
          | _ -> Error "unexpected frame from server"))
    in
    loop ()

let roundtrip c line =
  if c.framed then
    frame_roundtrip c (Frame.Request line) (function
      | Frame.Reply doc -> Some doc
      | _ -> None)
  else
    match
      output_string c.oc line;
      output_char c.oc '\n';
      flush c.oc;
      input_line c.ic
    with
    | reply -> Ok reply
    | exception exn -> Error (transport_error exn)

let fresh_id c =
  let id = Json.Num (float_of_int c.next_id) in
  c.next_id <- c.next_id + 1;
  id

let parse_result reply =
  match Protocol.parse_reply reply with
  | Error msg -> Error ("transport", "malformed reply: " ^ msg)
  | Ok (Protocol.Ok (_, result)) -> Ok result
  | Ok (Protocol.Err (_, code, message)) -> Error (code, message)

let call c ~op params =
  let line = Json.to_string (Protocol.request ~id:(fresh_id c) ~op params) in
  match roundtrip c line with
  | Error msg -> Error ("transport", msg)
  | Ok reply -> parse_result reply

let call_batch c reqs =
  let docs =
    List.map
      (fun (op, params) ->
        Json.to_string (Protocol.request ~id:(fresh_id c) ~op params))
      reqs
  in
  if not c.framed then
    invalid_arg "Client.call_batch: requires a framed connection";
  match
    frame_roundtrip c (Frame.Batch docs) (function
      | Frame.Batch_reply replies -> Some replies
      | _ -> None)
  with
  | Error msg -> Error msg
  | Ok replies ->
    if List.length replies <> List.length docs then
      Error "batch reply count mismatch"
    else Ok (List.map parse_result replies)

let hello c =
  if not c.framed then invalid_arg "Client.hello: requires a framed connection";
  frame_roundtrip c
    (Frame.Hello "{\"client\":\"urm\"}")
    (function Frame.Hello_ack credit -> Some credit | _ -> None)

let credit c =
  if not c.framed then invalid_arg "Client.credit: requires a framed connection";
  frame_roundtrip c (Frame.Credit 0) (function
    | Frame.Credit n -> Some n
    | _ -> None)
