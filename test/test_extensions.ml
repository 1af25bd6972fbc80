(* Threshold queries, CSV, JSON, mapping persistence and the
   possible-worlds oracle on the paper's running example. *)
open Urm_relalg

let s v = Value.Str v
let i v = Value.Int v

(* The same fixture as test_core: the paper's running example. *)
let source =
  Schema.make "S"
    [
      ( "Customer",
        [
          ("cid", Schema.TInt); ("cname", Schema.TStr); ("ophone", Schema.TStr);
          ("hphone", Schema.TStr); ("mobile", Schema.TStr); ("oaddr", Schema.TStr);
          ("haddr", Schema.TStr); ("nid", Schema.TInt);
        ] );
    ]

let target =
  Schema.make "T"
    [
      ( "Person",
        [
          ("pname", Schema.TStr); ("phone", Schema.TStr); ("addr", Schema.TStr);
          ("nation", Schema.TStr); ("gender", Schema.TStr);
        ] );
    ]

let catalog () =
  let cat = Catalog.create () in
  Catalog.add cat "Customer"
    (Relation.create
       ~cols:[ "cid"; "cname"; "ophone"; "hphone"; "mobile"; "oaddr"; "haddr"; "nid" ]
       [
         [| i 1; s "Alice"; s "123"; s "789"; s "555"; s "aaa"; s "hk"; i 1 |];
         [| i 2; s "Bob"; s "456"; s "123"; s "556"; s "bbb"; s "hk"; i 1 |];
         [| i 3; s "Cindy"; s "456"; s "789"; s "557"; s "aaa"; s "aaa"; i 2 |];
       ]);
  cat

let ctx () = Urm.Ctx.make ~catalog:(catalog ()) ~source ~target ()

let mk id prob pairs = Urm.Mapping.make ~id ~prob ~score:prob pairs

let mappings () =
  [
    mk 0 0.3
      [ ("Person.pname", "Customer.cname"); ("Person.phone", "Customer.ophone");
        ("Person.addr", "Customer.oaddr") ];
    mk 1 0.2
      [ ("Person.pname", "Customer.cname"); ("Person.phone", "Customer.ophone");
        ("Person.addr", "Customer.oaddr"); ("Person.gender", "Customer.nid") ];
    mk 2 0.2
      [ ("Person.pname", "Customer.cname"); ("Person.phone", "Customer.ophone");
        ("Person.addr", "Customer.haddr") ];
    mk 3 0.2
      [ ("Person.pname", "Customer.cname"); ("Person.phone", "Customer.hphone");
        ("Person.addr", "Customer.haddr") ];
    mk 4 0.1
      [ ("Person.pname", "Customer.mobile"); ("Person.phone", "Customer.ophone");
        ("Person.addr", "Customer.haddr") ];
  ]

let phone_where_addr addr =
  Urm.Query.make ~name:("q" ^ addr) ~target
    ~aliases:[ ("Person", "Person") ]
    ~selections:[ (Urm.Query.at "Person" "addr", s addr) ]
    ~projection:[ Urm.Query.at "Person" "phone" ]
    ()

(* ------------------------------------------------------------------ *)
(* Threshold queries *)

let test_threshold_matches_exact () =
  let ctx = ctx () in
  let ms = mappings () in
  let q = phone_where_addr "aaa" in
  let full = (Urm.Basic.run ctx q ms).Urm.Report.answer in
  List.iter
    (fun tau ->
      let r = Urm.Threshold.run ~tau ctx q ms in
      let got = Urm.Answer.to_list r.Urm.Threshold.report.Urm.Report.answer in
      let expected =
        List.filter (fun (_, p) -> p >= tau -. 1e-9) (Urm.Answer.to_list full)
      in
      Alcotest.(check int)
        (Printf.sprintf "tau=%.2f count" tau)
        (List.length expected) (List.length got);
      List.iter
        (fun (t, lb) ->
          let exact = Urm.Answer.prob_of full t in
          Alcotest.(check bool) "lb ≤ exact" true (lb <= exact +. 1e-9);
          Alcotest.(check bool) "qualifies" true (exact >= tau -. 1e-9))
        got)
    [ 0.1; 0.3; 0.5; 0.8; 1.0 ]

let test_threshold_invalid_tau () =
  Alcotest.check_raises "tau=0"
    (Invalid_argument "Threshold.run: tau must be in (0, 1]") (fun () ->
      ignore (Urm.Threshold.run ~tau:0. (ctx ()) (phone_where_addr "aaa") (mappings ())))

let test_threshold_exact_probs_when_finished () =
  let ctx = ctx () in
  let ms = mappings () in
  let q = phone_where_addr "aaa" in
  let r = Urm.Threshold.run ~tau:0.1 ctx q ms in
  if not r.Urm.Threshold.stopped_early then begin
    let full = (Urm.Basic.run ctx q ms).Urm.Report.answer in
    List.iter
      (fun (t, lb) ->
        Alcotest.(check (float 1e-9)) "exact" (Urm.Answer.prob_of full t) lb)
      (Urm.Answer.to_list r.Urm.Threshold.report.Urm.Report.answer)
  end

(* ------------------------------------------------------------------ *)
(* CSV *)

let test_csv_roundtrip_untyped () =
  let rel =
    Relation.create ~cols:[ "a"; "b"; "c" ]
      [
        [| i 1; s "plain"; Value.Float 1.5 |];
        [| i 2; s "with,comma"; Value.Null |];
        [| i 3; s "with\"quote"; Value.Float (-0.25) |];
        [| i 4; s "123"; Value.Float 2. |];
        [| i 5; s ""; Value.Null |];
      ]
  in
  let back = Csv.read_string (Csv.write_string rel) in
  Alcotest.(check bool) "roundtrip" true (Relation.equal_contents rel back)

let test_csv_typed () =
  let rel_schema =
    { Schema.rname = "r";
      attrs =
        [
          { Schema.aname = "k"; ty = Schema.TInt };
          { Schema.aname = "name"; ty = Schema.TStr };
          { Schema.aname = "w"; ty = Schema.TFloat };
        ];
    }
  in
  let text = "k,name,w\n1,42,2.5\n2,,0.5\n" in
  let rel = Csv.read_string ~schema:rel_schema text in
  Alcotest.(check bool) "string stays string" true
    (Value.equal (Relation.value rel 0 "name") (s "42"));
  Alcotest.(check bool) "int" true (Value.equal (Relation.value rel 0 "k") (i 1));
  Alcotest.(check bool) "empty is null" true (Value.is_null (Relation.value rel 1 "name"))

(* Regression: a quoted field pending at EOF (no trailing newline) was
   dropped when its unescaped text was empty — [parse_rows]'s final flush
   tested only the buffer, which [""] leaves empty. *)
let test_csv_eof_quoted_field () =
  let one_row text =
    let rel = Csv.read_string text in
    Alcotest.(check int) (Printf.sprintf "%S row count" text) 1
      (Relation.cardinality rel);
    Relation.value rel 0 "c"
  in
  Alcotest.(check bool) "empty quoted string at EOF survives" true
    (Value.equal (one_row "c\n\"\"") (Value.Str ""));
  Alcotest.(check bool) "escaped quote at EOF survives" true
    (Value.equal (one_row "c\n\"a\"\"b\"") (Value.Str "a\"b"))

let test_csv_errors () =
  (match Csv.read_string "a,b\n1\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted");
  match Csv.read_string "a\n\"unterminated\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unterminated quote accepted"

let test_csv_catalog_roundtrip () =
  let dir = Filename.temp_file "urm" "" in
  Sys.remove dir;
  let cat = Urm_tpch.Gen.generate ~seed:3 ~scale:0.005 () in
  Csv.export_catalog dir cat;
  let back = Csv.import_catalog ~schema:Urm_tpch.Gen.schema dir in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " identical") true
        (Relation.equal_contents (Catalog.find cat name) (Catalog.find back name)))
    (Catalog.names cat)

(* ------------------------------------------------------------------ *)
(* JSON + mapping persistence *)

let test_json_roundtrip () =
  let module J = Urm_util.Json in
  let j =
    J.Obj
      [
        ("a", J.Arr [ J.Num 1.; J.Num (-2.5); J.Null; J.Bool true ]);
        ("s", J.Str "quote\" slash\\ newline\n");
        ("nested", J.Obj [ ("x", J.Arr []) ]);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (J.parse_exn (J.to_string j) = j)

let test_json_parse_errors () =
  let module J = Urm_util.Json in
  List.iter
    (fun text ->
      match J.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" text)
    [ "{"; "[1,"; "\"unterminated"; "nul"; "1 2"; "{\"a\" 1}" ]

let test_json_accessors () =
  let module J = Urm_util.Json in
  let j = J.parse_exn {|{"xs":[1,2,3],"name":"n"}|} in
  Alcotest.(check int) "member list" 3
    (List.length (J.to_list (Option.get (J.member "xs" j))));
  Alcotest.(check string) "member str" "n" (J.to_str (Option.get (J.member "name" j)));
  Alcotest.(check bool) "missing member" true (J.member "zzz" j = None)

let test_mapping_io_roundtrip () =
  let ms = mappings () in
  let back = Urm.Mapping_io.of_json (Urm.Mapping_io.to_json ms) in
  Alcotest.(check int) "count" (List.length ms) (List.length back);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "pairs" true (Urm.Mapping.same_correspondences a b);
      Alcotest.(check (float 1e-12)) "prob" a.Urm.Mapping.prob b.Urm.Mapping.prob;
      Alcotest.(check int) "id" a.Urm.Mapping.id b.Urm.Mapping.id)
    ms back

let test_mapping_io_file () =
  let path = Filename.temp_file "urm" ".json" in
  let ms = mappings () in
  Urm.Mapping_io.save path ms;
  let back = Urm.Mapping_io.load path in
  Sys.remove path;
  Alcotest.(check int) "count" (List.length ms) (List.length back)

let test_mapping_io_rejects_garbage () =
  (match Urm.Mapping_io.of_json "[{\"id\":0}]" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "missing fields accepted");
  match Urm.Mapping_io.of_json "not json" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "garbage accepted"

(* ------------------------------------------------------------------ *)
(* Data translation *)

let test_translate_relation () =
  let ctx = ctx () in
  let m = List.hd (mappings ()) in
  (* m0 maps pname←cname, phone←ophone, addr←oaddr *)
  let person = Translate.relation ctx m "Person" in
  Alcotest.(check (list string)) "target header"
    [ "pname"; "phone"; "addr"; "nation"; "gender" ]
    (Relation.cols person);
  Alcotest.(check int) "three customers" 3 (Relation.cardinality person);
  Alcotest.(check bool) "values translated" true
    (Relation.fold
       (fun acc row -> acc || Value.equal row.(0) (s "Alice"))
       false person);
  (* unmapped attributes are Null *)
  Relation.iter
    (fun row -> Alcotest.(check bool) "nation null" true (Value.is_null row.(3)))
    person

let test_translate_catalog () =
  let ctx = ctx () in
  List.iter
    (fun m ->
      let cat = Translate.catalog ctx m in
      (* every mapping yields 3 distinct person rows *)
      Alcotest.(check int) "Person rows" 3 (Relation.cardinality (Catalog.find cat "Person"));
      Alcotest.(check bool) "catalog holds the relation" true
        (Relation.equal_contents (Catalog.find cat "Person") (Translate.relation ctx m "Person")))
    (mappings ())

let test_translate_unmapped_relation_empty () =
  let ctx = ctx () in
  let m = Urm.Mapping.make ~id:9 ~prob:1. ~score:1. [ ("Person.phone", "Customer.ophone") ] in
  (* no Order.* correspondences → would-be empty relation *)
  let person = Translate.relation ctx m "Person" in
  Alcotest.(check bool) "person non-empty" true (Relation.cardinality person > 0)

(* ------------------------------------------------------------------ *)
(* Monte-Carlo validation and per-world supports *)

(* A test-local weighted sampler, independent of the library's exact
   sums: inverse CDF over the cumulative mapping probabilities. *)
let sampler ~seed ms =
  let arr = Array.of_list ms in
  let cumulative = Array.map (fun m -> m.Urm.Mapping.prob) arr in
  for i = 1 to Array.length arr - 1 do
    cumulative.(i) <- cumulative.(i) +. cumulative.(i - 1)
  done;
  let rng = Urm_util.Prng.create seed in
  fun () ->
    let u = Urm_util.Prng.float rng *. cumulative.(Array.length arr - 1) in
    let i = ref 0 in
    while !i < Array.length arr - 1 && cumulative.(!i) <= u do incr i done;
    arr.(!i)

(* Monte-Carlo estimate over 20,000 sampled worlds, each world's answer
   computed from its one mapping (memoised per mapping). *)
let mc_estimate ~seed ctx q ms =
  let draw = sampler ~seed ms and n = 20_000 in
  let worlds = Hashtbl.create 16 in
  let estimate = Urm.Answer.create (Urm.Reformulate.output_header q) in
  for _ = 1 to n do
    let m = draw () in
    let world =
      match Hashtbl.find_opt worlds m.Urm.Mapping.id with
      | Some a -> a
      | None ->
        let a = (Urm.Basic.run ctx q [ m ]).Urm.Report.answer in
        Hashtbl.add worlds m.Urm.Mapping.id a;
        a
    in
    let share = 1. /. float_of_int n in
    if Urm.Answer.null_prob world > 0. then Urm.Answer.add_null estimate share;
    Urm.Answer.iter (fun t _ -> Urm.Answer.add estimate t share) world
  done;
  estimate

(* Largest |p_exact − p_estimate| over the tuples of either answer, θ
   included. *)
let max_deviation ~exact ~estimate =
  let dev_over a b =
    List.fold_left
      (fun acc (t, p) -> Float.max acc (abs_float (p -. Urm.Answer.prob_of b t)))
      0. (Urm.Answer.to_list a)
  in
  Float.max
    (abs_float (Urm.Answer.null_prob exact -. Urm.Answer.null_prob estimate))
    (Float.max (dev_over exact estimate) (dev_over estimate exact))

let test_montecarlo_close_to_exact () =
  let ctx = ctx () in
  let ms = mappings () in
  let q = phone_where_addr "aaa" in
  let exact = (Urm.Basic.run ctx q ms).Urm.Report.answer in
  let estimate = mc_estimate ~seed:5 ctx q ms in
  let dev = max_deviation ~exact ~estimate in
  (* max binomial std-dev at p=0.5, n=20000 ≈ 0.0035; allow 5σ *)
  if dev > 0.02 then Alcotest.failf "MC deviation %.4f too large" dev

let test_montecarlo_sampler_distribution () =
  let ms = mappings () in
  let draw = sampler ~seed:3 ms in
  let counts = Hashtbl.create 8 in
  let n = 50000 in
  for _ = 1 to n do
    let m = draw () in
    Hashtbl.replace counts m.Urm.Mapping.id
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts m.Urm.Mapping.id))
  done;
  List.iter
    (fun m ->
      let freq =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts m.Urm.Mapping.id))
        /. float_of_int n
      in
      if abs_float (freq -. m.Urm.Mapping.prob) > 0.01 then
        Alcotest.failf "mapping %d sampled at %.3f, prob %.3f" m.Urm.Mapping.id freq
          m.Urm.Mapping.prob)
    ms

(* The paper's example, world by world: which mappings' possible worlds
   return each phone of [phone_where_addr "aaa"], and the exact sum of
   their probabilities renders basic's answer. *)
let test_world_supports () =
  let ctx = ctx () in
  let ms = mappings () in
  let q = phone_where_addr "aaa" in
  let supporters tuple =
    List.filter
      (fun m -> List.exists (Urm.Answer.tuple_equal tuple) (Translate.world_tuples ctx q m))
      ms
  in
  let ids = List.map (fun m -> m.Urm.Mapping.id) in
  Alcotest.(check (list int)) "support of 123" [ 0; 1 ] (ids (supporters [| s "123" |]));
  Alcotest.(check (list int)) "support of 456" [ 0; 1; 2; 4 ] (ids (supporters [| s "456" |]));
  Alcotest.(check (list int)) "support of 789" [ 3 ] (ids (supporters [| s "789" |]));
  Alcotest.(check (list int)) "no support for junk" [] (ids (supporters [| s "zzz" |]));
  Alcotest.(check (list int)) "no empty world" []
    (ids (List.filter (fun m -> Translate.world_tuples ctx q m = []) ms));
  let exact = (Urm.Basic.run ctx q ms).Urm.Report.answer in
  let by_support = Urm.Answer.create (Urm.Answer.output exact) in
  List.iter
    (fun phone ->
      let t = [| s phone |] in
      Urm.Answer.add_exact by_support t
        (Urm.Answer.mass
           (Array.of_list (List.map (fun m -> m.Urm.Mapping.prob) (supporters t)))))
    [ "123"; "456"; "789" ];
  let bytes a = Urm_util.Json.to_string (Urm.Answer.to_json a) in
  Alcotest.(check string) "support masses render basic" (bytes exact) (bytes by_support)

module Json = Urm_util.Json

(* Trees compared with numbers by their bits, so -0. and 0. differ. *)
let rec json_same a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Arr xs, Json.Arr ys ->
    List.length xs = List.length ys && List.for_all2 json_same xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> String.equal k l && json_same x y) xs ys
  | _ -> a = b

(* Strings of quotes, backslashes, every control character, DEL, UTF-8
   multibyte sequences and stray high bytes; numbers that are integers up
   to 2⁵³, -0., extreme exponents and arbitrary finite bit patterns. *)
let json_gen =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        oneofl [ "\""; "\\"; "/"; "\127"; "é"; "€"; "\xff"; "\\u0041"; "a"; "key" ];
        map (fun n -> String.make 1 (Char.chr n)) (0 -- 31);
        string_size ~gen:printable (0 -- 4);
      ]
  in
  let str = map (String.concat "") (list_size (0 -- 5) piece) in
  let finite =
    map
      (fun bits ->
        let f = Int64.float_of_bits bits in
        if Float.is_finite f then f else 1.5)
      ui64
  in
  let num =
    oneof
      [
        map float_of_int (-1000 -- 1000);
        map (fun n -> float_of_int (n - (1 lsl 53))) (0 -- (1 lsl 54));
        oneofl [ -0.; 0.; 9007199254740992.; -9007199254740992.; 1e15; 1e-300; 1.5e300; 5e-324; 0.1 ];
        finite;
      ]
  in
  let rec gen depth =
    let leaf =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun f -> Json.Num f) num;
          map (fun s -> Json.Str s) str;
        ]
    in
    if depth = 0 then leaf
    else
      oneof
        [
          leaf;
          map (fun l -> Json.Arr l) (list_size (0 -- 4) (gen (depth - 1)));
          map
            (fun kvs ->
              (* Distinct keys, so the tree round-trips structurally. *)
              let _, fields =
                List.fold_left
                  (fun (seen, acc) (k, v) ->
                    if List.mem k seen then (seen, acc) else (k :: seen, (k, v) :: acc))
                  ([], []) kvs
              in
              Json.Obj (List.rev fields))
            (list_size (0 -- 4) (pair str (gen (depth - 1))));
        ]
  in
  gen 3

let json_arb = QCheck.make ~print:Json.to_string json_gen

let qcheck_json_roundtrip =
  QCheck.Test.make ~name:"json roundtrip" ~count:500 json_arb
    (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok back -> json_same back j
      | Error _ -> false)

(* The same tree rendered with random whitespace between every pair of
   tokens parses to the same tree. *)
let qcheck_json_whitespace =
  QCheck.Test.make ~name:"json whitespace between tokens" ~count:300
    (QCheck.pair json_arb QCheck.int) (fun (j, seed) ->
      let rng = Random.State.make [| seed |] in
      let ws () =
        String.init (Random.State.int rng 3) (fun _ ->
            " \t\n\r".[Random.State.int rng 4])
      in
      let buf = Buffer.create 64 in
      let add s = Buffer.add_string buf (ws ()); Buffer.add_string buf s in
      let rec render = function
        | Json.Arr items ->
          add "[";
          List.iteri (fun i x -> if i > 0 then add ","; render x) items;
          add "]"
        | Json.Obj fields ->
          add "{";
          List.iteri
            (fun i (k, x) ->
              if i > 0 then add ",";
              add (Json.to_string (Json.Str k));
              add ":";
              render x)
            fields;
          add "}"
        | leaf -> add (Json.to_string leaf)
      in
      render j;
      add "";
      match Json.parse (Buffer.contents buf) with
      | Ok back -> json_same back j
      | Error _ -> false)

(* A proper prefix of a rendered container never parses and never raises
   anything but the parser's own error. *)
let qcheck_json_prefixes =
  QCheck.Test.make ~name:"json proper prefixes are errors" ~count:200 json_arb
    (fun j ->
      let text =
        Json.to_string (match j with Json.Arr _ | Json.Obj _ -> j | leaf -> Json.Arr [ leaf ])
      in
      List.for_all
        (fun n ->
          match Json.parse (String.sub text 0 n) with
          | Error _ -> true
          | Ok _ -> false
          | exception _ -> false)
        (List.init (String.length text) Fun.id))

let test_json_escapes () =
  let parsed text =
    match Json.parse text with
    | Ok (Json.Str s) -> s
    | Ok j -> Alcotest.failf "%s parsed to %s" text (Json.to_string j)
    | Error m -> Alcotest.failf "%s: %s" text m
  in
  Alcotest.(check string) "ASCII, both hex cases" "A\x1f\x7f" (parsed {|"A\u001F\u007f"|});
  Alcotest.(check string) "two- and three-byte UTF-8" "\xc3\xa9\xe2\x82\xac"
    (parsed {|"\u00e9\u20AC"|});
  (* A surrogate pair is not combined: each half is three bytes. *)
  Alcotest.(check string) "surrogate halves" "\xed\xa0\xbd\xed\xb8\x80"
    (parsed {|"\uD83D\ude00"|});
  Alcotest.(check string) "short escapes" "\"\\/\b\012\n\r\t"
    (parsed {|"\"\\\/\b\f\n\r\t"|});
  Alcotest.(check string) "runs around escapes" "ab\ncd\"ef" (parsed {|"ab\ncd\"ef"|});
  List.iter
    (fun text ->
      match Json.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" text)
    [ {|"\u00g0"|}; {|"\u12"|}; {|"\x"|}; {|"ab\|}; {|"\u_123"|}; {|[1 2]|}; {|{"a":1,}|} ];
  (* The cursor reads a document field by field, in text order. *)
  let c = Json.cursor {| {"n": -0.5e1, "s": "x\ty", "xs": [1, [2]], "z": null} |} in
  let seen = ref [] in
  Json.fields c (fun k ->
      seen :=
        (match k with
        | "n" -> Printf.sprintf "%g" (Json.number c)
        | "s" -> Json.string c
        | "xs" ->
          let n = ref 0 in
          Json.items c (fun () -> incr n; ignore (Json.value c));
          string_of_int !n
        | _ -> Json.to_string (Json.value c))
        :: !seen);
  Json.finish c;
  Alcotest.(check (list string)) "cursor fields" [ "-5"; "x\ty"; "2"; "null" ] (List.rev !seen)

let qcheck_csv_roundtrip =
  let open QCheck.Gen in
  let value =
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) (-1000 -- 1000);
        map (fun s -> Value.Str s) (string_size ~gen:printable (0 -- 10));
        map (fun f -> Value.Float (Float.round (f *. 100.) /. 100.)) (float_bound_inclusive 100.);
      ]
  in
  let gen =
    1 -- 4 >>= fun arity ->
    list_size (0 -- 8) (array_size (return arity) value) >|= fun rows ->
    let cols = List.init arity (fun i -> Printf.sprintf "c%d" i) in
    Relation.create ~cols rows
  in
  QCheck.Test.make ~name:"csv roundtrip" ~count:100 (QCheck.make gen) (fun rel ->
      Relation.equal_contents rel (Csv.read_string (Csv.write_string rel)))

let suite =
  [
    Alcotest.test_case "threshold matches exact" `Quick test_threshold_matches_exact;
    Alcotest.test_case "threshold invalid tau" `Quick test_threshold_invalid_tau;
    Alcotest.test_case "threshold exact when finished" `Quick test_threshold_exact_probs_when_finished;
    Alcotest.test_case "csv roundtrip untyped" `Quick test_csv_roundtrip_untyped;
    Alcotest.test_case "csv typed" `Quick test_csv_typed;
    Alcotest.test_case "csv quoted field at EOF" `Quick test_csv_eof_quoted_field;
    Alcotest.test_case "csv errors" `Quick test_csv_errors;
    Alcotest.test_case "csv catalog roundtrip" `Quick test_csv_catalog_roundtrip;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "mapping io roundtrip" `Quick test_mapping_io_roundtrip;
    Alcotest.test_case "mapping io file" `Quick test_mapping_io_file;
    Alcotest.test_case "mapping io rejects garbage" `Quick test_mapping_io_rejects_garbage;
    Alcotest.test_case "translate relation" `Quick test_translate_relation;
    Alcotest.test_case "translate catalog" `Quick test_translate_catalog;
    Alcotest.test_case "translate partial mapping" `Quick test_translate_unmapped_relation_empty;
    Alcotest.test_case "monte-carlo close to exact" `Quick test_montecarlo_close_to_exact;
    Alcotest.test_case "monte-carlo sampler" `Quick test_montecarlo_sampler_distribution;
    Alcotest.test_case "paper example supports per world" `Quick test_world_supports;
    QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_json_whitespace;
    QCheck_alcotest.to_alcotest qcheck_json_prefixes;
    Alcotest.test_case "json escapes and the cursor" `Quick test_json_escapes;
    QCheck_alcotest.to_alcotest qcheck_csv_roundtrip;
  ]
