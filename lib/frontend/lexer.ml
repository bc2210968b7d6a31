exception Error of string * int

let keywords =
  [
    "int", Token.Kw_int;
    "char", Token.Kw_char;
    "void", Token.Kw_void;
    "if", Token.Kw_if;
    "else", Token.Kw_else;
    "while", Token.Kw_while;
    "for", Token.Kw_for;
    "do", Token.Kw_do;
    "return", Token.Kw_return;
    "break", Token.Kw_break;
    "continue", Token.Kw_continue;
    "goto", Token.Kw_goto;
    "switch", Token.Kw_switch;
    "case", Token.Kw_case;
    "default", Token.Kw_default;
  ]

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let tokenize src =
  let n = String.length src in
  let pos = ref 0 in
  let line = ref 1 in
  let toks = ref [] in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let cur () = peek 0 in
  let advance () =
    (match cur () with Some '\n' -> incr line | Some _ | None -> ());
    incr pos
  in
  let emit (t : Token.t) = toks := (t, !line) :: !toks in
  let error msg = raise (Error (msg, !line)) in
  (* Literals are kept as OCaml ints and normalised to 32 bits later; one
     beyond [max_int] cannot be held. *)
  let int_lit text =
    match int_of_string_opt text with
    | Some n -> emit (Int_lit n)
    | None -> error "integer literal out of range"
  in
  let escape c =
    match c with
    | 'n' -> '\n'
    | 't' -> '\t'
    | 'r' -> '\r'
    | '0' -> '\000'
    | '\\' -> '\\'
    | '\'' -> '\''
    | '"' -> '"'
    | _ -> error (Printf.sprintf "unknown escape \\%c" c)
  in
  let read_char_escape () =
    match cur () with
    | Some '\\' ->
      advance ();
      (match cur () with
      | Some c ->
        advance ();
        escape c
      | None -> error "unterminated escape")
    | Some c ->
      advance ();
      c
    | None -> error "unterminated literal"
  in
  while !pos < n do
    let c = src.[!pos] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '/' && peek 1 = Some '*' then begin
      advance ();
      advance ();
      let rec skip () =
        match cur () with
        | None -> error "unterminated comment"
        | Some '*' when peek 1 = Some '/' ->
          advance ();
          advance ()
        | Some _ ->
          advance ();
          skip ()
      in
      skip ()
    end
    else if c = '/' && peek 1 = Some '/' then
      while !pos < n && src.[!pos] <> '\n' do
        advance ()
      done
    else if is_digit c then begin
      if c = '0' && (peek 1 = Some 'x' || peek 1 = Some 'X') then begin
        advance ();
        advance ();
        let start = !pos in
        while (match cur () with Some c -> is_hex c | None -> false) do
          advance ()
        done;
        if !pos = start then error "empty hex literal";
        int_lit ("0x" ^ String.sub src start (!pos - start))
      end
      else begin
        let start = !pos in
        while (match cur () with Some c -> is_digit c | None -> false) do
          advance ()
        done;
        int_lit (String.sub src start (!pos - start))
      end
    end
    else if is_ident_start c then begin
      let start = !pos in
      while (match cur () with Some c -> is_ident_char c | None -> false) do
        advance ()
      done;
      let word = String.sub src start (!pos - start) in
      match List.assoc_opt word keywords with
      | Some kw -> emit kw
      | None -> emit (Ident word)
    end
    else if c = '\'' then begin
      advance ();
      let v = read_char_escape () in
      (match cur () with
      | Some '\'' -> advance ()
      | Some _ | None -> error "unterminated character literal");
      emit (Int_lit (Char.code v))
    end
    else if c = '"' then begin
      advance ();
      let buf = Buffer.create 16 in
      let rec go () =
        match cur () with
        | None -> error "unterminated string literal"
        | Some '"' -> advance ()
        | Some _ ->
          Buffer.add_char buf (read_char_escape ());
          go ()
      in
      go ();
      emit (Str_lit (Buffer.contents buf))
    end
    else begin
      let two tok =
        advance ();
        advance ();
        emit tok
      in
      let one tok =
        advance ();
        emit tok
      in
      match c, peek 1 with
      | '+', Some '+' -> two Plus_plus
      | '+', Some '=' -> two Plus_assign
      | '-', Some '-' -> two Minus_minus
      | '-', Some '=' -> two Minus_assign
      | '*', Some '=' -> two Star_assign
      | '/', Some '=' -> two Slash_assign
      | '%', Some '=' -> two Percent_assign
      | '&', Some '&' -> two Amp_amp
      | '|', Some '|' -> two Bar_bar
      | '=', Some '=' -> two Eq_eq
      | '!', Some '=' -> two Bang_eq
      | '<', Some '<' -> two Shl
      | '>', Some '>' -> two Shr
      | '<', Some '=' -> two Le
      | '>', Some '=' -> two Ge
      | '+', _ -> one Plus
      | '-', _ -> one Minus
      | '*', _ -> one Star
      | '/', _ -> one Slash
      | '%', _ -> one Percent
      | '&', _ -> one Amp
      | '|', _ -> one Bar
      | '^', _ -> one Caret
      | '~', _ -> one Tilde
      | '!', _ -> one Bang
      | '<', _ -> one Lt
      | '>', _ -> one Gt
      | '=', _ -> one Assign
      | '(', _ -> one Lparen
      | ')', _ -> one Rparen
      | '{', _ -> one Lbrace
      | '}', _ -> one Rbrace
      | '[', _ -> one Lbracket
      | ']', _ -> one Rbracket
      | ';', _ -> one Semi
      | ',', _ -> one Comma
      | ':', _ -> one Colon
      | '?', _ -> one Question
      | _ -> error (Printf.sprintf "unexpected character %C" c)
    end
  done;
  emit Eof;
  List.rev !toks
