open Urm_relalg

type tattr = { alias : string; attr : string }

let at alias attr = { alias; attr }
let tattr_to_string ta = ta.alias ^ "." ^ ta.attr
let pp_tattr ppf ta = Format.pp_print_string ppf (tattr_to_string ta)

type agg = Count | Sum of tattr

type t = {
  name : string;
  aliases : (string * string) list;
  selections : (tattr * Value.t) list;
  joins : (tattr * tattr) list;
  projection : tattr list option;
  aggregate : agg option;
  group_by : tattr list;
}

let relation_of q alias = List.assoc alias q.aliases
let qualified q ta = Schema.qualify (relation_of q ta.alias) ta.attr

let make ~name ~target ~aliases ?(selections = []) ?(joins = []) ?projection
    ?aggregate ?(group_by = []) () =
  if aliases = [] then invalid_arg "Query.make: no aliases";
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (a, r) ->
      if Hashtbl.mem seen a then invalid_arg ("Query.make: duplicate alias " ^ a);
      Hashtbl.add seen a ();
      if not (Schema.mem_rel target r) then
        invalid_arg ("Query.make: unknown target relation " ^ r))
    aliases;
  let check ta =
    match List.assoc_opt ta.alias aliases with
    | None -> invalid_arg ("Query.make: unknown alias " ^ ta.alias)
    | Some r ->
      let rel = Schema.find_rel target r in
      if not (List.exists (fun a -> String.equal a.Schema.aname ta.attr) rel.Schema.attrs)
      then invalid_arg ("Query.make: unknown attribute " ^ tattr_to_string ta)
  in
  List.iter (fun (ta, _) -> check ta) selections;
  List.iter
    (fun (a, b) ->
      check a;
      check b)
    joins;
  Option.iter (List.iter check) projection;
  (match aggregate with
  | Some (Sum ta) -> check ta
  | Some Count | None -> ());
  List.iter check group_by;
  if projection <> None && aggregate <> None then
    invalid_arg "Query.make: projection and aggregate are exclusive";
  if group_by <> [] && aggregate = None then
    invalid_arg "Query.make: group_by requires an aggregate";
  { name; aliases; selections; joins; projection; aggregate; group_by }

let dedup_tattrs l =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun ta ->
      let k = tattr_to_string ta in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    l

let referenced_attrs q =
  let sels = List.map fst q.selections in
  let joins = List.concat_map (fun (a, b) -> [ a; b ]) q.joins in
  let proj = Option.value ~default:[] q.projection in
  let agg = match q.aggregate with Some (Sum ta) -> [ ta ] | Some Count | None -> [] in
  dedup_tattrs (sels @ joins @ proj @ agg @ q.group_by)

let referenced_of_alias q alias =
  List.filter (fun ta -> String.equal ta.alias alias) (referenced_attrs q)

let output_attrs q =
  match (q.projection, q.aggregate) with
  | Some p, _ -> p
  | None, Some _ -> q.group_by
  | None, None -> referenced_attrs q

let needed_attrs target q alias =
  match referenced_of_alias q alias with
  | _ :: _ as refs -> refs
  | [] ->
    let rel = Schema.find_rel target (relation_of q alias) in
    List.map (fun a -> at alias a.Schema.aname) rel.Schema.attrs

type op =
  | Op_select of int
  | Op_join of int
  | Op_product of string * string
  | Op_output

let pp_op q ppf = function
  | Op_select i ->
    let ta, v = List.nth q.selections i in
    Format.fprintf ppf "σ[%a=%a]" pp_tattr ta Value.pp v
  | Op_join i ->
    let a, b = List.nth q.joins i in
    Format.fprintf ppf "⋈[%a=%a]" pp_tattr a pp_tattr b
  | Op_product (a, b) -> Format.fprintf ppf "×[%s,%s]" a b
  | Op_output -> Format.pp_print_string ppf "output"

(* Products connect the alias components left separate by the join graph:
   union-find over aliases, then one product per surviving component pair,
   in alias declaration order. *)
let products q =
  let aliases = List.map fst q.aliases in
  let parent = Hashtbl.create 8 in
  List.iter (fun a -> Hashtbl.replace parent a a) aliases;
  let rec find a =
    let p = Hashtbl.find parent a in
    if String.equal p a then a
    else begin
      let root = find p in
      Hashtbl.replace parent a root;
      root
    end
  in
  let union a b = Hashtbl.replace parent (find a) (find b) in
  List.iter (fun (x, y) -> union x.alias y.alias) q.joins;
  let out = ref [] in
  (match aliases with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun a ->
        if not (String.equal (find a) (find first)) then begin
          out := (first, a) :: !out;
          union a first
        end)
      rest);
  List.rev !out

let operators q =
  List.mapi (fun i _ -> Op_select i) q.selections
  @ List.mapi (fun i _ -> Op_join i) q.joins
  @ List.map (fun (a, b) -> Op_product (a, b)) (products q)
  @ [ Op_output ]

let operator_count q =
  List.length q.selections + List.length q.joins + List.length (products q)
  + (match (q.projection, q.aggregate) with None, None -> 0 | _ -> 1)

(* Canonical text: identifies the query up to name and up to the order of
   aliases, selections and join predicates (join sides are oriented
   lexicographically).  Projection, aggregate and group-by order is
   significant (it shapes the output) and is kept as written.  Without
   [constants] a selection renders as its attribute alone: the query's
   shape. *)
let canonical_text ~constants q =
  let buf = Buffer.create 128 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sorted to_str l = List.sort String.compare (List.map to_str l) in
  add "aliases[%s]"
    (String.concat ";" (sorted (fun (a, r) -> a ^ ":" ^ r) q.aliases));
  add "sel[%s]"
    (String.concat ";"
       (sorted
          (fun (ta, v) ->
            if constants then tattr_to_string ta ^ "=" ^ Value.to_string v
            else tattr_to_string ta)
          q.selections));
  add "join[%s]"
    (String.concat ";"
       (sorted
          (fun (a, b) ->
            let a = tattr_to_string a and b = tattr_to_string b in
            if String.compare a b <= 0 then a ^ "~" ^ b else b ^ "~" ^ a)
          q.joins));
  (match q.projection with
  | None -> ()
  | Some p ->
    add "proj[%s]" (String.concat ";" (List.map tattr_to_string p)));
  (match q.aggregate with
  | None -> ()
  | Some Count -> add "agg[count]"
  | Some (Sum ta) -> add "agg[sum:%s]" (tattr_to_string ta));
  if q.group_by <> [] then
    add "group[%s]" (String.concat ";" (List.map tattr_to_string q.group_by));
  Buffer.contents buf

let canonical q = canonical_text ~constants:true q
let shape q = canonical_text ~constants:false q
let fingerprint q = Urm_util.Fnv.(to_hex (string (canonical q)))

let pp ppf q =
  Format.fprintf ppf "@[<h>%s:" q.name;
  (match q.aggregate with
  | Some Count -> Format.fprintf ppf " COUNT("
  | Some (Sum ta) -> Format.fprintf ppf " SUM(%a, " pp_tattr ta
  | None -> ());
  (match q.projection with
  | Some p ->
    Format.fprintf ppf " π[%s]" (String.concat "," (List.map tattr_to_string p))
  | None -> ());
  List.iter
    (fun (ta, v) -> Format.fprintf ppf " σ[%a=%a]" pp_tattr ta Value.pp v)
    q.selections;
  List.iter
    (fun (a, b) -> Format.fprintf ppf " ⋈[%a=%a]" pp_tattr a pp_tattr b)
    q.joins;
  Format.fprintf ppf " %s"
    (String.concat " × "
       (List.map (fun (a, r) -> if String.equal a r then r else r ^ " as " ^ a) q.aliases));
  (match q.aggregate with Some _ -> Format.fprintf ppf ")" | None -> ());
  if q.group_by <> [] then
    Format.fprintf ppf " γ[%s]"
      (String.concat "," (List.map tattr_to_string q.group_by));
  Format.fprintf ppf "@]"

let to_string q = Format.asprintf "%a" pp q
