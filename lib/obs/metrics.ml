type counter = { mutable count : int }
type timer = { mutable seconds : float; mutable calls : int }
type span = { sp_timer : timer; sp_t0 : float }

type registry = {
  counters : (string, counter) Hashtbl.t;
  timers : (string, timer) Hashtbl.t;
}

type t = { reg : registry; prefix : string }

(* One process-wide lock serialises registry mutation (handle resolution,
   reset), counter/timer updates and snapshots, so server worker domains can
   share {!global} without torn or lost counts.  Contention is negligible:
   the critical sections are a few loads and stores. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let create () =
  { reg = { counters = Hashtbl.create 64; timers = Hashtbl.create 16 }; prefix = "" }

let global = create ()
let scope t name = { t with prefix = t.prefix ^ name ^ "/" }

let in_scope t key =
  let lp = String.length t.prefix in
  lp = 0 || (String.length key >= lp && String.equal (String.sub key 0 lp) t.prefix)

let reset t =
  locked (fun () ->
      let drop tbl =
        let keys =
          Hashtbl.fold (fun k _ acc -> if in_scope t k then k :: acc else acc) tbl []
        in
        List.iter (Hashtbl.remove tbl) keys
      in
      drop t.reg.counters;
      drop t.reg.timers)

(* ------------------------------------------------------------------ *)
(* Counters *)

let counter t name =
  let key = t.prefix ^ name in
  locked (fun () ->
      match Hashtbl.find_opt t.reg.counters key with
      | Some c -> c
      | None ->
        let c = { count = 0 } in
        Hashtbl.add t.reg.counters key c;
        c)

let incr ?(by = 1) c = locked (fun () -> c.count <- c.count + by)
let value c = locked (fun () -> c.count)

let find_counter t name =
  locked (fun () ->
      Option.map (fun c -> c.count) (Hashtbl.find_opt t.reg.counters (t.prefix ^ name)))

(* ------------------------------------------------------------------ *)
(* Timers and spans *)

let timer t name =
  let key = t.prefix ^ name in
  locked (fun () ->
      match Hashtbl.find_opt t.reg.timers key with
      | Some tm -> tm
      | None ->
        let tm = { seconds = 0.; calls = 0 } in
        Hashtbl.add t.reg.timers key tm;
        tm)

let record tm secs =
  locked (fun () ->
      tm.seconds <- tm.seconds +. secs;
      tm.calls <- tm.calls + 1)

let elapsed tm = locked (fun () -> tm.seconds)
let calls tm = locked (fun () -> tm.calls)

let span_begin tm = { sp_timer = tm; sp_t0 = Urm_util.Timer.now () }
let span_end sp = record sp.sp_timer (Urm_util.Timer.now () -. sp.sp_t0)

let time tm f =
  let sp = span_begin tm in
  Fun.protect ~finally:(fun () -> span_end sp) f

(* ------------------------------------------------------------------ *)
(* Snapshots *)

(* Snapshots are taken under the lock and sorted by name, so the rendered
   JSON (and pp output) is deterministic regardless of Hashtbl iteration
   order or concurrent writers. *)
let by_name (a, _) (b, _) = String.compare a b

let counters t =
  locked (fun () ->
      Hashtbl.fold
        (fun k c acc -> if in_scope t k then (k, c.count) :: acc else acc)
        t.reg.counters [])
  |> List.sort by_name

let timers t =
  locked (fun () ->
      Hashtbl.fold
        (fun k tm acc -> if in_scope t k then (k, (tm.seconds, tm.calls)) :: acc else acc)
        t.reg.timers [])
  |> List.sort by_name

let to_json t =
  let open Urm_util.Json in
  Obj
    [
      ( "counters",
        Obj (List.map (fun (k, v) -> (k, Num (float_of_int v))) (counters t)) );
      ( "timers",
        Obj
          (List.map
             (fun (k, (s, n)) ->
               (k, Obj [ ("seconds", Num s); ("count", Num (float_of_int n)) ]))
             (timers t)) );
    ]

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%-52s %12d@," k v) (counters t);
  List.iter
    (fun (k, (s, n)) -> Format.fprintf ppf "%-52s %10.4fs /%d@," k s n)
    (timers t);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Roll-up of metric snapshots across processes (the shard router's
   [metrics] op): numeric leaves with the same path sum; objects merge
   recursively over the union of keys (key order: first appearance, so a
   roll-up over identically-shaped shard snapshots stays deterministic).
   Keys in [drop] are removed wherever they appear — percentiles and
   means are not additive, so summing them would lie. *)
let rollup ?(drop = [ "p50"; "p95"; "p99"; "mean" ]) snapshots =
  let open Urm_util.Json in
  let dropped = List.filter (fun k -> not (List.mem k drop)) in
  let rec merge a b =
    match (a, b) with
    | Num x, Num y -> Num (x +. y)
    | Obj xs, Obj ys ->
      let keys =
        dropped
          (List.map fst xs
          @ List.filter (fun k -> not (List.mem_assoc k xs)) (List.map fst ys))
      in
      Obj
        (List.map
           (fun k ->
             match (List.assoc_opt k xs, List.assoc_opt k ys) with
             | Some x, Some y -> (k, merge x y)
             | Some x, None | None, Some x -> (k, prune x)
             | None, None -> (k, Null))
           keys)
    | x, _ -> x
  and prune = function
    | Obj xs ->
      Obj (List.filter_map
             (fun (k, v) -> if List.mem k drop then None else Some (k, prune v))
             xs)
    | other -> other
  in
  match snapshots with
  | [] -> Urm_util.Json.Obj []
  | first :: rest -> List.fold_left merge (prune first) rest
