type t = {
  catalog : Urm_relalg.Catalog.t;
  scale : float;
  seed : int;
  mapping_cache : (string * int, Urm.Mapping.t list) Hashtbl.t;
}

let create ?(seed = 42) ?(scale = Urm_tpch.Gen.default_scale) () =
  {
    catalog = Urm_tpch.Gen.generate ~seed ~scale ();
    scale;
    seed;
    mapping_cache = Hashtbl.create 8;
  }

let scale p = p.scale
let seed p = p.seed
let instance_rows p = Urm_relalg.Catalog.total_rows p.catalog

let ctx ?engine p target =
  Urm.Ctx.make ?engine ~catalog:p.catalog ~source:Urm_tpch.Gen.schema ~target ()

let mappings p target ~h =
  let name = target.Urm_relalg.Schema.sname in
  match Hashtbl.find_opt p.mapping_cache (name, h) with
  | Some ms -> ms
  | None ->
    (* A cached larger set serves smaller h by prefix, its probabilities
       recomputed from the scores (Murty enumerates best-first, so the
       prefix is exactly the h-best, and a fresh enumeration of h gives
       the same bits). *)
    let from_larger =
      Hashtbl.fold
        (fun (n, h') ms acc ->
          if String.equal n name && h' > h then
            match acc with
            | Some (best_h, _) when best_h <= h' -> acc
            | _ -> Some (h', ms)
          else acc)
        p.mapping_cache None
    in
    let ms =
      match from_larger with
      | Some (_, larger) -> Urm.Mapgen.prefix ~h larger
      | None ->
        Urm.Mapgen.generate ~h ~source:Urm_tpch.Gen.schema ~target ()
    in
    Hashtbl.replace p.mapping_cache (name, h) ms;
    ms

let synthetic_mappings p target ~h =
  let name = "synthetic:" ^ target.Urm_relalg.Schema.sname in
  match Hashtbl.find_opt p.mapping_cache (name, h) with
  | Some ms -> ms
  | None ->
    let cands =
      Urm_matcher.Match.candidates ~source:Urm_tpch.Gen.schema ~target ()
    in
    let ms = Urm.Mapgen.synthetic ~seed:p.seed ~h cands in
    Hashtbl.replace p.mapping_cache (name, h) ms;
    ms

let run p alg ~query ~target ~h =
  Urm.Algorithms.run alg (ctx p target) query (mappings p target ~h)
