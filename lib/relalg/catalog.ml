type t = {
  id : int;
  tables : (string, Relation.t) Hashtbl.t;
  indexes : (string * string, (Value.t, int list) Hashtbl.t) Hashtbl.t;
  mutable use_indexes : bool;
}

let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1

let create () =
  { id = fresh_id (); tables = Hashtbl.create 16; indexes = Hashtbl.create 16; use_indexes = true }

let add t name rel =
  Hashtbl.replace t.tables name rel;
  (* Any cached indexes for a replaced relation are stale. *)
  Hashtbl.iter
    (fun (r, c) _ -> if String.equal r name then Hashtbl.remove t.indexes (r, c))
    (Hashtbl.copy t.indexes)

(* Copy-on-write derivation: the new catalog owns fresh binding tables but
   shares untouched [Relation.t]s *and* their already-built column indexes
   (index tables are write-once after construction, so sharing is safe);
   only the replaced relations lose their indexes and rebuild on demand.
   The originating catalog is not modified — snapshots pinned to it keep
   reading the old versions. *)
let cow t replacements =
  let replaced name = List.exists (fun (n, _) -> String.equal n name) replacements in
  let fresh =
    {
      id = fresh_id ();
      tables = Hashtbl.copy t.tables;
      indexes = Hashtbl.create (Hashtbl.length t.indexes);
      use_indexes = t.use_indexes;
    }
  in
  Hashtbl.iter
    (fun ((r, _) as key) idx ->
      if not (replaced r) then Hashtbl.replace fresh.indexes key idx)
    t.indexes;
  List.iter
    (fun (name, rel) ->
      if not (Hashtbl.mem t.tables name) then
        invalid_arg ("Catalog.cow: unknown relation " ^ name);
      Hashtbl.replace fresh.tables name rel)
    replacements;
  fresh

let id t = t.id
let find t name = Hashtbl.find t.tables name
let mem t name = Hashtbl.mem t.tables name

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [] |> List.sort String.compare

let total_rows t =
  Hashtbl.fold (fun _ rel acc -> acc + Relation.cardinality rel) t.tables 0

let index t rname col =
  match Hashtbl.find_opt t.indexes (rname, col) with
  | Some idx -> idx
  | None ->
    let rel = find t rname in
    let pos = Relation.col_pos rel col in
    let idx = Hashtbl.create (max 16 (Relation.cardinality rel)) in
    let i = ref 0 in
    Relation.iter
      (fun row ->
        let v = row.(pos) in
        let prev = try Hashtbl.find idx v with Not_found -> [] in
        Hashtbl.replace idx v (!i :: prev);
        incr i)
      rel;
    Hashtbl.replace t.indexes (rname, col) idx;
    idx

let build_indexes t =
  Hashtbl.iter
    (fun name rel ->
      Array.iter (fun col -> ignore (index t name col)) rel.Relation.cols)
    t.tables

let lookup t rname col v =
  let rel = find t rname in
  if t.use_indexes then begin
    let idx = index t rname col in
    let rows = try Hashtbl.find idx v with Not_found -> [] in
    List.rev_map (fun i -> rel.Relation.rows.(i)) rows
  end
  else begin
    let pos = Relation.col_pos rel col in
    Relation.fold
      (fun acc row -> if Value.equal row.(pos) v then row :: acc else acc)
      [] rel
  end

(* Whether [lookup] would return any row, without building the row list. *)
let has_value t rname col v =
  if t.use_indexes then Hashtbl.mem (index t rname col) v
  else
    let rel = find t rname in
    let pos = Relation.col_pos rel col in
    Relation.fold (fun found row -> found || Value.equal row.(pos) v) false rel

let set_indexing t b = t.use_indexes <- b
let indexing_enabled t = t.use_indexes
