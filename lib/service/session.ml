module Vcatalog = Urm_incr.Vcatalog
module State = Urm_incr.State

type t = {
  name : string;
  fingerprint : string;
  target_name : string;
  target : Urm_relalg.Schema.t;
  vcat : Vcatalog.t;
  seed : int;
  scale : float;
  h : int;
  rows : int;
  incr_states : (string, State.t) Hashtbl.t;
  incr_lock : Mutex.t;
  inv_selective : int Atomic.t;
  inv_wholesale : int Atomic.t;
}

type catalog = {
  sessions : (string, t) Hashtbl.t;
  lock : Mutex.t;
}

let create_catalog () = { sessions = Hashtbl.create 8; lock = Mutex.create () }

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let fingerprint_of ~target_name ~seed:sd ~scale ~h mappings =
  let open Urm_util.Fnv in
  let d = seed in
  let d = add_string d target_name in
  let d = add_int d sd in
  let d = add_float d scale in
  let d = add_int d h in
  let d = add_string d (Urm.Mapping_io.to_json mappings) in
  to_hex d

let same_params s ~target_name ~seed ~scale ~h =
  String.equal s.target_name target_name
  && s.seed = seed
  && Float.equal s.scale scale
  && s.h = h

let fingerprint s = s.fingerprint
let snapshot s = Vcatalog.head s.vcat
let ctx s = (snapshot s).Vcatalog.ctx
let mappings s = (snapshot s).Vcatalog.mappings
let epoch s = Vcatalog.epoch s.vcat

let build ?engine ~name ~target_name ~target ~seed ~scale ~h () =
  let pipeline = Urm_workload.Pipeline.create ~seed ~scale () in
  let ctx = Urm_workload.Pipeline.ctx ?engine pipeline target in
  let mappings = Urm_workload.Pipeline.mappings pipeline target ~h in
  (* Indexes must exist before concurrent evaluation: lazy construction
     inside a worker would race (Catalog is a plain Hashtbl).  The same
     discipline holds across mutations — [eager_indexes] makes every
     committed catalog version index its replaced relations up front. *)
  Urm_relalg.Catalog.build_indexes ctx.Urm.Ctx.catalog;
  let fingerprint = fingerprint_of ~target_name ~seed ~scale ~h mappings in
  let name = match name with Some n -> n | None -> String.sub fingerprint 0 12 in
  {
    name;
    fingerprint;
    target_name;
    target;
    vcat = Vcatalog.create ~eager_indexes:true ~ctx ~mappings ();
    seed;
    scale;
    h;
    rows = Urm_workload.Pipeline.instance_rows pipeline;
    incr_states = Hashtbl.create 4;
    incr_lock = Mutex.create ();
    inv_selective = Atomic.make 0;
    inv_wholesale = Atomic.make 0;
  }

let conflict s =
  Error
    (Printf.sprintf
       "session %S already open with different parameters (target %s, \
        seed %d, scale %g, h %d)"
       s.name s.target_name s.seed s.scale s.h)

let open_session c ?name ?engine ?(seed = 42)
    ?(scale = Urm_tpch.Gen.default_scale) ?(h = 100) ~target () =
  match Urm_workload.Targets.by_name target with
  | exception Not_found ->
    Error (Printf.sprintf "unknown target schema %S (Excel|Noris|Paragon)" target)
  | target_schema ->
    let target_name = target in
    (* The build — workload generation plus eager index construction — can
       take seconds, so it must not run under the catalog lock: [find] is
       on the path of every query.  Take the lock only to check, then to
       re-check-and-insert; a concurrent opener of the same name may build
       redundantly, but the first insert wins and the loser adopts it. *)
    let existing =
      locked c (fun () ->
          match Option.bind name (Hashtbl.find_opt c.sessions) with
          | Some s when same_params s ~target_name ~seed ~scale ~h ->
            Some (Ok (s, false))
          | Some s -> Some (conflict s)
          | None -> None)
    in
    (match existing with
    | Some result -> result
    | None ->
      let s =
        build ?engine ~name ~target_name ~target:target_schema ~seed ~scale ~h ()
      in
      locked c (fun () ->
          match Hashtbl.find_opt c.sessions s.name with
          | Some clash when same_params clash ~target_name ~seed ~scale ~h ->
            Ok (clash, false)
          | Some clash -> conflict clash
          | None ->
            Hashtbl.replace c.sessions s.name s;
            Ok (s, true)))

let find c name = locked c (fun () -> Hashtbl.find_opt c.sessions name)

let close c name =
  locked c (fun () ->
      let present = Hashtbl.mem c.sessions name in
      Hashtbl.remove c.sessions name;
      present)

let list c =
  locked c (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) c.sessions [])
  |> List.sort (fun a b -> String.compare a.name b.name)

(* ------------------------------------------------------------------ *)
(* Mutation and maintained answers *)

let mutate s batch = Vcatalog.commit s.vcat batch

let with_incr_state ?metrics s q f =
  Mutex.lock s.incr_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock s.incr_lock)
    (fun () ->
      let key = Urm.Query.canonical q in
      let state, status =
        match Hashtbl.find_opt s.incr_states key with
        | None -> (State.build (snapshot s) q, `Built)
        | Some st ->
          let st, status = State.catch_up ?metrics s.vcat st in
          (st, (status :> [ `Built | `Current | `Patched | `Rebuilt ]))
      in
      Hashtbl.replace s.incr_states key state;
      f state status)

let note_invalidation s = function
  | `Selective -> Atomic.incr s.inv_selective
  | `Wholesale -> Atomic.incr s.inv_wholesale

let invalidations s = (Atomic.get s.inv_selective, Atomic.get s.inv_wholesale)

let to_json s =
  let open Urm_util.Json in
  Obj
    [
      ("session", Str s.name);
      ("fingerprint", Str s.fingerprint);
      ("target", Str s.target_name);
      ("seed", Num (float_of_int s.seed));
      ("scale", Num s.scale);
      ("mappings", Num (float_of_int (List.length (mappings s))));
      ("rows", Num (float_of_int s.rows));
      ("epoch", Num (float_of_int (epoch s)));
    ]
