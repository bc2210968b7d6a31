(* Each lint rule: one positive fixture and one clean fixture. *)

open Ir
open Flow
module Diag = Telemetry.Diag

let has code diags = List.exists (fun (d : Diag.t) -> d.code = code) diags

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0
let check_has name code diags = Alcotest.(check bool) name true (has code diags)

let check_not name code diags =
  Alcotest.(check bool) name false (has code diags)

(* Compile C down to pre-allocation RTL, like `jumprepc lint` does. *)
let lint_c ?(level = Opt.Driver.Simple) src =
  let prog =
    Opt.Driver.compile
      { Opt.Driver.default_options with level; allocate = false }
      Ir.Machine.risc src
  in
  Lint.check_prog prog

let func_of mks =
  let lsupply = Label.Supply.create () in
  let vsupply = Reg.Supply.create () in
  let labels =
    Array.init (Array.length mks) (fun _ -> Label.Supply.fresh lsupply)
  in
  let blocks =
    Array.mapi
      (fun i mk -> { Func.label = labels.(i); instrs = mk labels })
      mks
  in
  Func.make ~name:"t" ~blocks ~lsupply ~vsupply

let v n = Reg.Virt n

let test_uninit_read () =
  let findings =
    lint_c
      "int main() {\n\
      \  int x;\n\
      \  int c;\n\
      \  c = getchar();\n\
      \  if (c > 70) { x = 1; }\n\
      \  putchar(65 + x);\n\
      \  return 0;\n\
       }\n"
  in
  check_has "conditionally initialized local" Diag.Uninit_read findings;
  Alcotest.(check bool) "error severity" true (Diag.has_errors findings);
  let clean =
    lint_c
      "int main() {\n\
      \  int x;\n\
      \  int c;\n\
      \  c = getchar();\n\
      \  x = 0;\n\
      \  if (c > 70) { x = 1; }\n\
      \  putchar(65 + x);\n\
      \  return 0;\n\
       }\n"
  in
  check_not "initialized on every path" Diag.Uninit_read clean

let test_dead_store () =
  let f =
    func_of
      [|
        (fun _ ->
          [
            Rtl.Enter 8;
            Rtl.Move (Lreg (v 1), Imm 5);
            Rtl.Move (Lreg (v 2), Reg (v 1));
            Rtl.Move (Lreg Conv.rv, Imm 0);
            Rtl.Leave;
            Rtl.Ret;
          ]);
      |]
  in
  let findings = Lint.check_func f in
  check_has "unread result" Diag.Dead_store findings;
  let clean =
    func_of
      [|
        (fun _ ->
          [
            Rtl.Enter 8;
            Rtl.Move (Lreg (v 1), Imm 5);
            Rtl.Move (Lreg Conv.rv, Reg (v 1));
            Rtl.Leave;
            Rtl.Ret;
          ]);
      |]
  in
  check_not "every result read" Diag.Dead_store (Lint.check_func clean)

let test_const_branch () =
  let f =
    func_of
      [|
        (fun ls ->
          [
            Rtl.Enter 8;
            Rtl.Move (Lreg (v 1), Imm 1);
            Rtl.Cmp (Reg (v 1), Imm 0);
            Rtl.Branch (Rtl.Ne, ls.(2));
          ]);
        (fun _ -> [ Rtl.Nop ]);
        (fun _ -> [ Rtl.Move (Lreg Conv.rv, Imm 0); Rtl.Leave; Rtl.Ret ]);
      |]
  in
  let findings = Lint.check_func f in
  check_has "decidable compare" Diag.Const_branch findings;
  Alcotest.(check bool) "warning only" false (Diag.has_errors findings);
  (* A call result is opaque: the same shape is undecidable. *)
  let clean =
    func_of
      [|
        (fun ls ->
          [
            Rtl.Enter 8;
            Rtl.Call ("getchar", 0);
            Rtl.Move (Lreg (v 1), Reg Conv.rv);
            Rtl.Cmp (Reg (v 1), Imm 0);
            Rtl.Branch (Rtl.Ne, ls.(2));
          ]);
        (fun _ -> [ Rtl.Nop ]);
        (fun _ -> [ Rtl.Move (Lreg Conv.rv, Imm 0); Rtl.Leave; Rtl.Ret ]);
      |]
  in
  check_not "opaque compare" Diag.Const_branch (Lint.check_func clean)

let test_jump_chain () =
  let f =
    func_of
      [|
        (fun ls -> [ Rtl.Enter 8; Rtl.Jump ls.(1) ]);
        (fun ls -> [ Rtl.Jump ls.(2) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      |]
  in
  check_has "jump lands on a jump" Diag.Jump_chain (Lint.check_func f);
  let clean =
    func_of
      [|
        (fun ls -> [ Rtl.Enter 8; Rtl.Jump ls.(2) ]);
        (fun _ -> [ Rtl.Nop ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      |]
  in
  check_not "direct jump" Diag.Jump_chain (Lint.check_func clean)

let test_unreachable () =
  let f =
    func_of
      [|
        (fun ls -> [ Rtl.Enter 8; Rtl.Jump ls.(2) ]);
        (fun ls -> [ Rtl.Move (Lreg (v 1), Imm 1); Rtl.Jump ls.(2) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      |]
  in
  check_has "orphan block" Diag.Unreachable_code (Lint.check_func f);
  let reachable =
    func_of
      [|
        (fun ls ->
          [
            Rtl.Enter 8;
            Rtl.Cmp (Reg Conv.rv, Imm 0);
            Rtl.Branch (Rtl.Eq, ls.(2));
          ]);
        (fun ls -> [ Rtl.Move (Lreg (v 1), Imm 1); Rtl.Jump ls.(2) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      |]
  in
  check_not "all blocks reachable" Diag.Unreachable_code
    (Lint.check_func reachable)

let test_malformed_guard () =
  (* A dangling target: lint must report Malformed_ir and nothing else. *)
  let lsupply = Label.Supply.create () in
  let vsupply = Reg.Supply.create () in
  let l0 = Label.Supply.fresh lsupply in
  let dangling = Label.Supply.fresh lsupply in
  let f =
    Func.make ~name:"t"
      ~blocks:
        [|
          { Func.label = l0; instrs = [ Rtl.Enter 8; Rtl.Jump dangling ] };
        |]
      ~lsupply ~vsupply
  in
  match Lint.check_func f with
  | [ d ] ->
    Alcotest.(check bool) "malformed-ir" true (d.Diag.code = Diag.Malformed_ir)
  | ds ->
    Alcotest.fail
      (Printf.sprintf "expected one malformed-ir finding, got %d"
         (List.length ds))

let test_replication_outlook () =
  (* At SIMPLE the loop's back jump survives; the outlook must mention it,
     as growth estimate, loop copy, or residual. *)
  let findings =
    lint_c ~level:Opt.Driver.Simple
      "int main() {\n\
      \  int i;\n\
      \  int s;\n\
      \  s = 0;\n\
      \  for (i = 0; i < 10; i++) { s += i; }\n\
      \  putchar(65 + (s & 15));\n\
      \  return 0;\n\
       }\n"
  in
  Alcotest.(check bool) "some replication outlook" true
    (has Diag.Code_growth findings
    || has Diag.Loop_replication findings
    || has Diag.Jump_residual findings);
  Alcotest.(check bool) "outlook is warnings only" false
    (Diag.has_errors findings)

let test_diag_of_decision () =
  let lsupply = Label.Supply.create () in
  let a = Label.Supply.fresh lsupply in
  let b = Label.Supply.fresh lsupply in
  let mk d = Lint.diag_of_decision ~func:"f" ~pass:"lint" ((a, b), d) in
  let loop =
    mk
      (Replication.Jumps.Replicated
         { mode = "favor-loops"; seq = [ 1; 2 ]; cost = 5; loop_completed = true })
  in
  Alcotest.(check bool) "loop copy" true (loop.Diag.code = Diag.Loop_replication);
  let growth =
    mk
      (Replication.Jumps.Replicated
         { mode = "favor-returns"; seq = [ 1 ]; cost = 2; loop_completed = false })
  in
  Alcotest.(check bool) "growth estimate" true
    (growth.Diag.code = Diag.Code_growth);
  Alcotest.(check bool) "cost in message" true
    (contains ~affix:"2 RTLs" growth.Diag.message);
  let residual = mk (Replication.Jumps.Not_replicated Telemetry.Log.No_path) in
  Alcotest.(check bool) "residual jump" true
    (residual.Diag.code = Diag.Jump_residual);
  Alcotest.(check bool) "all warnings" false
    (Diag.has_errors [ loop; growth; residual ])

let test_json_shape () =
  let findings =
    lint_c
      "int main() {\n\
      \  int x;\n\
      \  int c;\n\
      \  c = getchar();\n\
      \  if (c > 70) { x = 1; }\n\
      \  putchar(65 + x);\n\
      \  return 0;\n\
       }\n"
  in
  let json =
    Telemetry.Json.(to_string (Arr (List.map Diag.to_json findings)))
  in
  Alcotest.(check bool) "code field" true
    (contains ~affix:"\"code\":\"uninit-read\"" json);
  Alcotest.(check bool) "severity field" true
    (contains ~affix:"\"severity\":\"error\"" json)

let tests =
  ( "lint",
    [
      Alcotest.test_case "uninit-read" `Quick test_uninit_read;
      Alcotest.test_case "dead-store" `Quick test_dead_store;
      Alcotest.test_case "const-branch" `Quick test_const_branch;
      Alcotest.test_case "jump-chain" `Quick test_jump_chain;
      Alcotest.test_case "unreachable-code" `Quick test_unreachable;
      Alcotest.test_case "malformed guard" `Quick test_malformed_guard;
      Alcotest.test_case "replication outlook" `Quick test_replication_outlook;
      Alcotest.test_case "decision diagnostics" `Quick test_diag_of_decision;
      Alcotest.test_case "json shape" `Quick test_json_shape;
    ] )
