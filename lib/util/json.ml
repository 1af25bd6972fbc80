type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emitter *)

(* Unescaped runs are copied whole; only the characters that need an
   escape are written one by one. *)
let escape_into buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    end
  done;
  if n > !run then Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string json =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number_to_string f)
    | Str s -> escape_into buf s
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go json;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Pull cursor: the one parser *)

type cursor = { text : string; mutable pos : int }

let cursor text = { text; pos = 0 }

let fail c msg = failwith (Printf.sprintf "Json: %s at offset %d" msg c.pos)

(* The next significant character, or ['\000'] at the end of the input
   (a NUL outside a string is malformed either way). *)
let peek c =
  let t = c.text and n = String.length c.text in
  while
    c.pos < n
    &&
    match String.unsafe_get t c.pos with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    c.pos <- c.pos + 1
  done;
  if c.pos < n then String.unsafe_get t c.pos else '\000'

let at_end c = c.pos >= String.length c.text

let expect c ch =
  let got = peek c in
  if at_end c then fail c "unexpected end of input"
  else if got = ch then c.pos <- c.pos + 1
  else fail c (Printf.sprintf "expected %C" ch)

let finish c =
  ignore (peek c);
  if not (at_end c) then fail c "trailing input"

let hex c i =
  match c.text.[i] with
  | '0' .. '9' as d -> Char.code d - 48
  | 'a' .. 'f' as d -> Char.code d - 87
  | 'A' .. 'F' as d -> Char.code d - 55
  | _ -> fail c "bad unicode escape"

(* [\uXXXX] as the UTF-8 bytes of that BMP code point; each half of a
   surrogate pair is encoded on its own. *)
let add_code_point buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* The index of the first ['"'] or ['\\'] at or after [i], or the length
   of the text. *)
let scan_run t i =
  let n = String.length t in
  let i = ref i in
  while
    !i < n
    &&
    let ch = String.unsafe_get t !i in
    ch <> '"' && ch <> '\\'
  do
    incr i
  done;
  !i

(* A string without escapes is one scan and one [String.sub]; escapes
   switch to a buffer that takes the unescaped runs whole. *)
let string c =
  expect c '"';
  let t = c.text and n = String.length c.text in
  let start = c.pos in
  let stop = scan_run t start in
  if stop >= n then begin
    c.pos <- n;
    fail c "unterminated string"
  end
  else if t.[stop] = '"' then begin
    c.pos <- stop + 1;
    String.sub t start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf t start (stop - start);
    c.pos <- stop;
    let rec escapes () =
      (* [c.pos] is at a backslash. *)
      if c.pos + 1 >= n then fail c "dangling escape";
      (match t.[c.pos + 1] with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
        if c.pos + 6 > n then fail c "bad unicode escape";
        let i = c.pos + 2 in
        add_code_point buf
          ((hex c i lsl 12) lor (hex c (i + 1) lsl 8) lor (hex c (i + 2) lsl 4)
          lor hex c (i + 3));
        c.pos <- c.pos + 4
      | _ -> fail c "unknown escape");
      let from = c.pos + 2 in
      let stop = scan_run t from in
      Buffer.add_substring buf t from (stop - from);
      c.pos <- stop;
      if stop >= n then fail c "unterminated string"
      else if t.[stop] = '"' then c.pos <- stop + 1
      else escapes ()
    in
    escapes ();
    Buffer.contents buf
  end

let number c =
  ignore (peek c);
  let t = c.text and n = String.length c.text in
  let start = c.pos in
  while
    c.pos < n
    &&
    match String.unsafe_get t c.pos with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  do
    c.pos <- c.pos + 1
  done;
  let s = String.sub t start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None ->
    c.pos <- start;
    fail c (if s = "" then "expected a value" else Printf.sprintf "bad number %S" s)

(* The comma-separated members of a container, [f] reading each. *)
let members c ~opening ~closing f =
  expect c opening;
  if peek c = closing then c.pos <- c.pos + 1
  else
    let rec loop () =
      f ();
      if peek c = ',' then begin
        c.pos <- c.pos + 1;
        loop ()
      end
      else expect c closing
    in
    loop ()

let fields c f =
  members c ~opening:'{' ~closing:'}' (fun () ->
      let key = string c in
      expect c ':';
      f key)

let items c f = members c ~opening:'[' ~closing:']' f

let literal c word v =
  let l = String.length word in
  if c.pos + l <= String.length c.text && String.sub c.text c.pos l = word then begin
    c.pos <- c.pos + l;
    v
  end
  else fail c ("expected " ^ word)

let rec value c =
  match peek c with
  | '{' ->
    let acc = ref [] in
    fields c (fun key -> acc := (key, value c) :: !acc);
    Obj (List.rev !acc)
  | '[' ->
    let acc = ref [] in
    items c (fun () -> acc := value c :: !acc);
    Arr (List.rev !acc)
  | '"' -> Str (string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | _ when at_end c -> fail c "unexpected end of input"
  | _ -> Num (number c)

let parse_exn text =
  let c = cursor text in
  let v = value c in
  finish c;
  v

let parse text = try Ok (parse_exn text) with Failure msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Arr l -> l | _ -> failwith "Json.to_list: not an array"
let to_float = function Num f -> f | _ -> failwith "Json.to_float: not a number"

let to_int j =
  let f = to_float j in
  if Float.is_integer f then int_of_float f else failwith "Json.to_int: not an integer"

let to_str = function Str s -> s | _ -> failwith "Json.to_str: not a string"
