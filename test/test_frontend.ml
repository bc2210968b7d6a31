(* Lexer, parser, and code generator tests. *)

open Frontend

let toks src = List.map fst (Lexer.tokenize src)

let test_lexer_basics () =
  Alcotest.(check int) "token count" 6
    (List.length (toks "int x = 42 ;"));
  (match toks "0x1F 'a' '\\n' \"hi\\t\"" with
  | [ Int_lit 31; Int_lit 97; Int_lit 10; Str_lit "hi\t"; Eof ] -> ()
  | _ -> Alcotest.fail "literal lexing");
  (match toks "a /* comment */ b // line\nc" with
  | [ Ident "a"; Ident "b"; Ident "c"; Eof ] -> ()
  | _ -> Alcotest.fail "comment skipping");
  (match toks "<<= >>" with
  | [ Shl; Assign; Shr; Eof ] -> ()
  | _ -> Alcotest.fail "maximal munch")

let test_lexer_errors () =
  let expect_error src =
    match Lexer.tokenize src with
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.fail ("lexer accepted " ^ src)
  in
  expect_error "\"unterminated";
  expect_error "'a";
  expect_error "/* unterminated";
  expect_error "@";
  (* Beyond [max_int]: a typed error, not [int_of_string]'s [Failure]. *)
  List.iter
    (fun src ->
      match Lexer.tokenize src with
      | exception Lexer.Error (msg, 1) ->
        Alcotest.(check string) src "integer literal out of range" msg
      | _ -> Alcotest.fail ("lexer accepted " ^ src))
    [ "p = 9223372036854775807;"; "p = 0x10000000000000000;" ];
  match toks (string_of_int max_int) with
  | [ Int_lit n; Eof ] -> Alcotest.(check int) "max_int literal" max_int n
  | _ -> Alcotest.fail "max_int literal"

let test_parser_precedence () =
  let open Ast in
  (match Parser.parse_expr "1 + 2 * 3" with
  | Binary (Add, Int_lit 1, Binary (Mul, Int_lit 2, Int_lit 3)) -> ()
  | _ -> Alcotest.fail "mul binds tighter");
  (match Parser.parse_expr "a = b = 3" with
  | Assign (None, Var "a", Assign (None, Var "b", Int_lit 3)) -> ()
  | _ -> Alcotest.fail "assignment right-assoc");
  (match Parser.parse_expr "1 - 2 - 3" with
  | Binary (Sub, Binary (Sub, Int_lit 1, Int_lit 2), Int_lit 3) -> ()
  | _ -> Alcotest.fail "sub left-assoc");
  (match Parser.parse_expr "a && b || c" with
  | Binary (Lor, Binary (Land, _, _), _) -> ()
  | _ -> Alcotest.fail "and binds tighter than or");
  (match Parser.parse_expr "x < 1 + 2" with
  | Binary (Lt, Var "x", Binary (Add, _, _)) -> ()
  | _ -> Alcotest.fail "arith binds tighter than cmp");
  (match Parser.parse_expr "-x[1]" with
  | Unary (Neg, Index (Var "x", Int_lit 1)) -> ()
  | _ -> Alcotest.fail "postfix binds tighter than unary");
  (match Parser.parse_expr "c ? a : b ? x : y" with
  | Ternary (Var "c", Var "a", Ternary (Var "b", Var "x", Var "y")) -> ()
  | _ -> Alcotest.fail "ternary right-assoc");
  (match Parser.parse_expr "*p++" with
  | Unary (Deref, Incdec { pre = false; inc = true; lhs = Var "p" }) -> ()
  | _ -> Alcotest.fail "*p++ parses as *(p++)")

let test_parser_decls () =
  let open Ast in
  match Parser.parse_program "int a[3][4], b; char *s; void f(int x) { }" with
  | [ Iglobals [ ga; gb ]; Iglobals [ gs ]; Ifunc f ] ->
    Alcotest.(check string) "a" "a" ga.gname;
    Alcotest.(check bool) "a type" true (ga.gty = Tarr (Tarr (Tint, 4), 3));
    Alcotest.(check string) "b" "b" gb.gname;
    Alcotest.(check bool) "s type" true (gs.gty = Tptr Tchar);
    Alcotest.(check string) "f" "f" f.fname;
    Alcotest.(check bool) "param" true (f.fparams = [ (Tint, "x") ])
  | _ -> Alcotest.fail "top-level parse shape"

let test_parser_errors () =
  let expect_error src =
    match Parser.parse_program src with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.fail ("parser accepted " ^ src)
  in
  expect_error "int main() { return }";
  expect_error "int main() { if (1 { } }";
  expect_error "int main() { x = ; }";
  expect_error "int 3x;";
  expect_error "int main() { break }"

(* --- Code shapes the replication experiment depends on (VPCC-like) --- *)

let func_of src name =
  let prog = Codegen.compile_source src in
  Option.get (Flow.Prog.find_func prog name)

let count_jumps f =
  Array.fold_left
    (fun n (b : Flow.Func.block) ->
      n
      + List.length
          (List.filter (function Ir.Rtl.Jump _ -> true | _ -> false) b.instrs))
    0 (Flow.Func.blocks f)

let test_while_shape () =
  (* while: test at top, unconditional jump at the bottom (plus the shared
     return-epilogue jump pattern giving returns their jump). *)
  let f = func_of "int main() { int i; i = 0; while (i < 10) i = i + 1; return i; }" "main" in
  Alcotest.(check bool) "has a bottom jump" true (count_jumps f >= 2)

let test_for_shape () =
  (* for: unconditional jump over the body to the test at the end. *)
  let f = func_of "int main() { int i, s; s = 0; for (i = 0; i < 3; i = i + 1) s = s + i; return s; }" "main" in
  let blocks = Flow.Func.blocks f in
  (* The entry block's successor chain must contain a Jump before any
     Branch: the jump to the test. *)
  let rec first_transfer i =
    if i >= Array.length blocks then None
    else
      match Flow.Func.terminator blocks.(i) with
      | Some t -> Some t
      | None -> first_transfer (i + 1)
  in
  (match first_transfer 0 with
  | Some (Ir.Rtl.Jump _) -> ()
  | _ -> Alcotest.fail "for loop should start with a jump to its test");
  Alcotest.(check bool) "well-formed" true (Flow.Check.errors f = [])

let test_if_else_shape () =
  let f =
    func_of "int main(){int i,n;i=7;n=2;if(i>5)i=i/n;else i=i*n;return i;}" "main"
  in
  Alcotest.(check bool) "jump over else exists" true (count_jumps f >= 1);
  Alcotest.(check bool) "well-formed" true (Flow.Check.errors f = [])

let test_codegen_errors () =
  let expect_error src =
    match Codegen.compile_source src with
    | exception Codegen.Error _ -> ()
    | _ -> Alcotest.fail ("codegen accepted " ^ src)
  in
  expect_error "int main() { return x; }";
  expect_error "int main() { foo(); }";
  expect_error "int f(int a) { return a; } int main() { return f(); }";
  expect_error "int main() { 3 = 4; }";
  expect_error "int main() { goto nowhere; }";
  expect_error "int f() { return 0; } int f() { return 1; } int main() { return 0; }";
  expect_error "int x; int x; int main() { return 0; }";
  expect_error "void f(int a, int b, int c, int d, int e, int f2, int g) { } int main() { return 0; }";
  expect_error "int g() { return 1; }" (* no main *)

let test_goto_labels () =
  let out, code =
    Helpers.run
      {|
int main() {
  int i;
  i = 0;
again:
  i = i + 1;
  if (i < 5) goto again;
  return i;
}
|}
  in
  Alcotest.(check string) "no output" "" out;
  Alcotest.(check int) "loop via goto" 5 code

let tests =
  ( "frontend",
    [
      Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
      Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
      Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
      Alcotest.test_case "parser declarations" `Quick test_parser_decls;
      Alcotest.test_case "parser errors" `Quick test_parser_errors;
      Alcotest.test_case "while shape" `Quick test_while_shape;
      Alcotest.test_case "for shape" `Quick test_for_shape;
      Alcotest.test_case "if/else shape" `Quick test_if_else_shape;
      Alcotest.test_case "codegen errors" `Quick test_codegen_errors;
      Alcotest.test_case "goto" `Quick test_goto_labels;
    ] )
