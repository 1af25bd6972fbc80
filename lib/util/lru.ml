(* Classic intrusive doubly-linked list over a hash table: [head] is the
   most recently used entry, [tail] the eviction candidate. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  cap : int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  lock : Mutex.t;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  {
    cap = capacity;
    tbl = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    lock = Mutex.create ();
  }

let capacity t = t.cap

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = locked t (fun () -> Hashtbl.length t.tbl)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> None
      | Some n ->
        unlink t n;
        push_front t n;
        Some n.value)

let evict_over_capacity t =
  let evicted = ref [] in
  while Hashtbl.length t.tbl > t.cap do
    match t.tail with
    | None -> assert false
    | Some n ->
      unlink t n;
      Hashtbl.remove t.tbl n.key;
      evicted := n.key :: !evicted
  done;
  !evicted

let add t key value =
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl key with
      | Some n ->
        n.value <- value;
        unlink t n;
        push_front t n
      | None ->
        let n = { key; value; prev = None; next = None } in
        Hashtbl.replace t.tbl key n;
        push_front t n);
      evict_over_capacity t)

let add_guarded t key value ~guard =
  locked t (fun () ->
      if not (guard ()) then None
      else begin
        (match Hashtbl.find_opt t.tbl key with
        | Some n ->
          n.value <- value;
          unlink t n;
          push_front t n
        | None ->
          let n = { key; value; prev = None; next = None } in
          Hashtbl.replace t.tbl key n;
          push_front t n);
        Some (evict_over_capacity t)
      end)

let put_if_absent t key value =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some n ->
        (* Keep the incumbent: callers that computed [value] outside the
           lock lost a race and must adopt the winner. *)
        unlink t n;
        push_front t n;
        (n.value, false, [])
      | None ->
        let n = { key; value; prev = None; next = None } in
        Hashtbl.replace t.tbl key n;
        push_front t n;
        (value, true, evict_over_capacity t))

let remove_if t pred =
  locked t (fun () ->
      (* Collect first: [pred] must not run while we restructure the list,
         and Hashtbl iteration forbids concurrent removal. *)
      let doomed =
        Hashtbl.fold
          (fun key n acc -> if pred key n.value then n :: acc else acc)
          t.tbl []
      in
      List.iter
        (fun n ->
          unlink t n;
          Hashtbl.remove t.tbl n.key)
        doomed;
      List.length doomed)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      t.head <- None;
      t.tail <- None)
