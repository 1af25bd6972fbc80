module Json = Urm_util.Json

type request = { id : Json.t; op : string; params : Json.t }

let request ?(id = Json.Null) ~op params =
  Json.Obj [ ("id", id); ("op", Json.Str op); ("params", Json.Obj params) ]

let parse_request line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok json -> (
    match json with
    | Json.Obj _ -> (
      let id = Option.value ~default:Json.Null (Json.member "id" json) in
      let params = Option.value ~default:Json.Null (Json.member "params" json) in
      match Json.member "op" json with
      | Some (Json.Str op) when op <> "" -> Ok { id; op; params }
      | Some _ -> Error "\"op\" must be a non-empty string"
      | None -> Error "missing \"op\"")
    | _ -> Error "request must be a JSON object")

let param req name = Json.member name req.params

let str_param req name =
  Option.map Json.to_str (param req name)

let int_param req name =
  Option.map Json.to_int (param req name)

let float_param req name =
  Option.map Json.to_float (param req name)

(* ------------------------------------------------------------------ *)

let ok ~id result =
  Json.to_string (Json.Obj [ ("id", id); ("ok", Json.Bool true); ("result", result) ])

let error ~id ~code message =
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ("ok", Json.Bool false);
         ("error", Json.Obj [ ("code", Json.Str code); ("message", Json.Str message) ]);
       ])

type reply =
  | Ok of Json.t * Json.t
  | Err of Json.t * string * string

let parse_reply line =
  match Json.parse line with
  | Error msg -> Stdlib.Error msg
  | Stdlib.Ok json -> (
    let id = Option.value ~default:Json.Null (Json.member "id" json) in
    match Json.member "ok" json with
    | Some (Json.Bool true) ->
      Stdlib.Ok (Ok (id, Option.value ~default:Json.Null (Json.member "result" json)))
    | Some (Json.Bool false) -> (
      match Json.member "error" json with
      | Some err ->
        let field n =
          match Json.member n err with Some (Json.Str s) -> s | _ -> ""
        in
        Stdlib.Ok (Err (id, field "code", field "message"))
      | None -> Stdlib.Ok (Err (id, "error", "unspecified error")))
    | _ -> Stdlib.Error "reply must carry a boolean \"ok\"")

(* ------------------------------------------------------------------ *)

let value_to_json = Urm.Report.value_to_json

let value_of_json = function
  | Json.Null -> Urm_relalg.Value.Null
  | Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
    Urm_relalg.Value.Int (int_of_float f)
  | Json.Num f -> Urm_relalg.Value.Float f
  | Json.Str s -> Urm_relalg.Value.Str s
  | _ -> failwith "Protocol.value_of_json: not a scalar"
