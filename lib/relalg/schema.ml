type ty = TInt | TFloat | TStr

type attr = { aname : string; ty : ty }

type rel = { rname : string; attrs : attr list }

type t = { sname : string; rels : rel list }

let make sname rels =
  let rel_of (rname, attrs) =
    { rname; attrs = List.map (fun (aname, ty) -> { aname; ty }) attrs }
  in
  { sname; rels = List.map rel_of rels }

let find_rel s name = List.find (fun r -> String.equal r.rname name) s.rels
let mem_rel s name = List.exists (fun r -> String.equal r.rname name) s.rels
let qualify rname aname = rname ^ "." ^ aname

let split_qualified q =
  match String.index_opt q '.' with
  | None -> invalid_arg ("Schema.split_qualified: " ^ q)
  | Some i ->
    (String.sub q 0 i, String.sub q (i + 1) (String.length q - i - 1))

let rel_attrs r = List.map (fun a -> qualify r.rname a.aname) r.attrs
let qualified_attrs s = List.concat_map rel_attrs s.rels
let attr_count s = List.fold_left (fun n r -> n + List.length r.attrs) 0 s.rels

let type_of s qattr =
  let rname, aname = split_qualified qattr in
  let r = find_rel s rname in
  (List.find (fun a -> String.equal a.aname aname) r.attrs).ty

let pp ppf s =
  Format.fprintf ppf "@[<v>schema %s:" s.sname;
  List.iter
    (fun r ->
      Format.fprintf ppf "@,  %s(%s)" r.rname
        (String.concat ", " (List.map (fun a -> a.aname) r.attrs)))
    s.rels;
  Format.fprintf ppf "@]"
