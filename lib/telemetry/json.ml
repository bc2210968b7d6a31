type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Fixed of int * float

(* --- rendering --- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let fixed decimals f = Printf.sprintf "%.*f" decimals f

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | Fixed (decimals, f) -> Buffer.add_string buf (fixed decimals f)
  | Str s -> Buffer.add_string buf (escape s)
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (escape k);
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* --- parsing (recursive descent; no dependencies) --- *)

exception Parse_fail of string * int

(* The descent recurses once per nesting level, so unbounded input depth
   would translate into unbounded stack: a worker frame of a few million
   '[' characters (well under the 16MB frame cap) must come back as
   [Error], not [Stack_overflow].  The cap is far above any
   document we emit, and low enough that the recursion never nears a
   real stack limit. *)
let max_depth = 4096

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_fail (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, found %c" c c')
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "bad literal (expected %s)" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (if !pos >= n then fail "unterminated escape"
           else
             let e = s.[!pos] in
             advance ();
             match e with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'u' ->
               if !pos + 4 > n then fail "truncated \\u escape";
               let hex = String.sub s !pos 4 in
               pos := !pos + 4;
               let code =
                 match int_of_string_opt ("0x" ^ hex) with
                 | Some c -> c
                 | None -> fail "bad \\u escape"
               in
               (* UTF-8 encode the BMP code point. *)
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
             | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
        | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value depth =
    skip_ws ();
    if depth > max_depth then
      fail (Printf.sprintf "nesting deeper than %d levels" max_depth);
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos < n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse_fail (msg, at) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)
  | exception Stack_overflow ->
    (* Unreachable while [max_depth] holds, but the never-raises contract
       must survive even if the descent grows a new recursion path. *)
    Error "JSON parse error: document exhausted the parser stack"

(* --- accessors --- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_list = function Arr xs -> Some xs | _ -> None
let get_string = function Str s -> Some s | _ -> None
let get_int = function Int i -> Some i | _ -> None

(* A [Fixed] number reads as the decimal it renders, so a value read
   before rendering equals the same value read back after parsing. *)
let get_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | Fixed (decimals, f) -> Some (float_of_string (fixed decimals f))
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None
