module Metrics = Urm_obs.Metrics
module Lru = Urm_util.Lru

type entry = { payload : Urm_util.Json.t; deps : string list }

(* Each count is kept per cache — what {!stats} reports, so two servers in
   one process never see each other's hits — and mirrored into the
   registry scope given at creation, which the process-wide dump reads. *)
type count = { mine : int Atomic.t; shared : Metrics.counter }

let count metrics name =
  { mine = Atomic.make 0; shared = Metrics.counter metrics name }

let bump ?(by = 1) c =
  ignore (Atomic.fetch_and_add c.mine by);
  Metrics.incr ~by c.shared

let read c = Atomic.get c.mine

type t = {
  lru : entry Lru.t;
  hit : count;
  miss : count;
  evict : count;
  inv_selective : count;
  inv_wholesale : count;
  inv_removed : count;
}

let create ?(metrics = Metrics.scope Metrics.global "service") ~capacity () =
  {
    lru = Lru.create ~capacity;
    hit = count metrics "cache.hit";
    miss = count metrics "cache.miss";
    evict = count metrics "cache.evict";
    inv_selective = count metrics "cache.invalidate.selective";
    inv_wholesale = count metrics "cache.invalidate.wholesale";
    inv_removed = count metrics "cache.invalidate.removed";
  }

(* The full canonical text, not its 64-bit digest: a hash collision within
   a session would silently serve the wrong cached answer.  NUL separators
   cannot occur in any component.  The fingerprint comes first so
   invalidation can address one session's entries by prefix. *)
let key ~session ~query ~algorithm ~variant =
  String.concat "\x00"
    [ Session.fingerprint session; Urm.Query.canonical query; algorithm; variant ]

let find t k =
  match Lru.find t.lru k with
  | Some e ->
    bump t.hit;
    Some e.payload
  | None ->
    bump t.miss;
    None

let add t ?(guard = fun () -> true) ~deps k payload =
  match Lru.add_guarded t.lru k { payload; deps } ~guard with
  | None -> ()
  | Some evicted ->
    if evicted <> [] then bump ~by:(List.length evicted) t.evict

type scope = All | Relations of string list

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let invalidate t ~fingerprint scope =
  let prefix = fingerprint ^ "\x00" in
  let removed =
    match scope with
    | All ->
      bump t.inv_wholesale;
      Lru.remove_if t.lru (fun k _ -> has_prefix ~prefix k)
    | Relations rels ->
      bump t.inv_selective;
      Lru.remove_if t.lru (fun k e ->
          has_prefix ~prefix k
          && List.exists (fun r -> List.mem r e.deps) rels)
  in
  bump ~by:removed t.inv_removed;
  removed

let stats t = (read t.hit, read t.miss, read t.evict)

let invalidation_stats t =
  (read t.inv_selective, read t.inv_wholesale, read t.inv_removed)
