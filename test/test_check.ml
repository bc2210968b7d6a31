(* The IR verifier on deliberately corrupted functions, and the driver's
   quarantine-and-rollback boundary around a broken pass. *)

open Ir
open Flow

let contains sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let has_violation sub errs =
  Alcotest.(check bool)
    (Printf.sprintf "a violation mentions %S (got: %s)" sub
       (String.concat " | " errs))
    true
    (List.exists (contains sub) errs)

(* A minimal well-formed function: Enter, pad, Leave/Ret. *)
let make_func instrs_mid =
  let lsupply = Label.Supply.create () in
  let vsupply = Reg.Supply.create () in
  let l0 = Label.Supply.fresh lsupply in
  let blocks =
    [| { Func.label = l0; instrs = (Rtl.Enter 8 :: instrs_mid) @ [ Rtl.Leave; Rtl.Ret ] } |]
  in
  Func.make ~name:"t" ~blocks ~lsupply ~vsupply

let test_clean () =
  (* Real compiler output is verifier-clean, including the full checks. *)
  let prog =
    Opt.Driver.compile Opt.Driver.default_options Ir.Machine.cisc
      "int main() { int i, s; s = 0; for (i = 0; i < 9; i++) s += i; return s; }"
  in
  List.iter
    (fun f ->
      Alcotest.(check (list string)) "no violations" [] (Check.errors ~full:true f))
    prog.Prog.funcs;
  Alcotest.(check (list string)) "no program violations" []
    (Check.program_errors prog)

let test_dangling_target () =
  let f = make_func [] in
  let ghost = Label.of_int 4242 in
  let bad =
    Func.with_blocks f
      (Array.append (Func.blocks f)
         [| { Func.label = Func.fresh_label f; instrs = [ Rtl.Jump ghost ] } |])
  in
  has_violation "does not exist" (Check.errors bad);
  (* The graph-level checks must not blow up on a dangling target. *)
  Alcotest.(check (list string)) "unreachable check guarded" []
    (Check.unreachable_blocks bad);
  match Check.assert_ok bad with
  | () -> Alcotest.fail "assert_ok accepted a dangling target"
  | exception Telemetry.Diag.Error d ->
    Alcotest.(check string) "diag code" "malformed-ir"
      (Telemetry.Diag.code_name d.Telemetry.Diag.code)

let test_mid_block_transfer () =
  let f = make_func [] in
  let l1 = Func.fresh_label f in
  let blocks =
    [|
      (Func.blocks f).(0);
      { Func.label = l1; instrs = [ Rtl.Jump l1; Rtl.Nop ] };
    |]
  in
  (* The Jump is followed by a Nop in the same block, and the new last
     block now falls off the end. *)
  let bad = Func.with_blocks f blocks in
  has_violation "in the middle of the block" (Check.errors bad);
  has_violation "falls off the end" (Check.errors bad)

let test_use_before_def () =
  (* v7 is used without any definition. *)
  let bad = make_func [ Rtl.Move (Rtl.Lreg (Reg.Virt 1), Rtl.Reg (Reg.Virt 7)) ] in
  Alcotest.(check (list string)) "cheap checks pass" [] (Check.errors bad);
  has_violation "used before definition" (Check.errors ~full:true bad);
  has_violation "v7" (Check.def_before_use bad)

let test_use_after_def_ok () =
  let ok =
    make_func
      [
        Rtl.Move (Rtl.Lreg (Reg.Virt 7), Rtl.Imm 1);
        Rtl.Move (Rtl.Lreg (Reg.Virt 1), Rtl.Reg (Reg.Virt 7));
      ]
  in
  Alcotest.(check (list string)) "no violations" [] (Check.errors ~full:true ok)

let test_def_on_one_path_only () =
  (* Diamond where only one arm defines v5; the join's use is flagged. *)
  let lsupply = Label.Supply.create () in
  let vsupply = Reg.Supply.create () in
  let l = Array.init 4 (fun _ -> Label.Supply.fresh lsupply) in
  let v5 = Reg.Virt 5 in
  let blocks =
    [|
      {
        Func.label = l.(0);
        instrs =
          [
            Rtl.Enter 8;
            Rtl.Cmp (Rtl.Reg (Reg.Virt 1), Rtl.Imm 0);
            Rtl.Branch (Rtl.Ne, l.(2));
          ];
      };
      (* Fall-through arm: defines v5, jumps to the join. *)
      { Func.label = l.(1); instrs = [ Rtl.Move (Rtl.Lreg v5, Rtl.Imm 3); Rtl.Jump l.(3) ] };
      (* Branch arm: no definition. *)
      { Func.label = l.(2); instrs = [ Rtl.Nop ] };
      { Func.label = l.(3); instrs = [ Rtl.Move (Rtl.Lreg (Reg.Virt 6), Rtl.Reg v5); Rtl.Leave; Rtl.Ret ] };
    |]
  in
  let f = Func.make ~name:"t" ~blocks ~lsupply ~vsupply in
  (* v1 is also undefined, so restrict the assertion to v5. *)
  has_violation "v5 used before definition" (Check.def_before_use f);
  (* Defining v5 on the other arm too clears it. *)
  let blocks2 = Array.copy blocks in
  blocks2.(2) <- { (blocks2.(2)) with instrs = [ Rtl.Move (Rtl.Lreg v5, Rtl.Imm 4) ] };
  let f2 = Func.make ~name:"t" ~blocks:blocks2 ~lsupply ~vsupply in
  Alcotest.(check bool) "both arms defined: no v5 violation" false
    (List.exists (contains "v5") (Check.def_before_use f2))

let test_duplicate_label_across_functions () =
  let f = make_func [] in
  let g =
    (* Same label supply from zero: g's entry label collides with f's. *)
    let lsupply = Label.Supply.create () in
    let vsupply = Reg.Supply.create () in
    let l0 = Label.Supply.fresh lsupply in
    Func.make ~name:"u"
      ~blocks:[| { Func.label = l0; instrs = [ Rtl.Enter 8; Rtl.Leave; Rtl.Ret ] } |]
      ~lsupply ~vsupply
  in
  let prog = { Prog.globals = []; funcs = [ f; g ] } in
  has_violation "defined in both" (Check.program_errors prog);
  let dup = { Prog.globals = []; funcs = [ f; f ] } in
  has_violation "duplicate function" (Check.program_errors dup)

let test_unreachable_blocks () =
  let f = make_func [] in
  let orphan =
    { Func.label = Func.fresh_label f; instrs = [ Rtl.Jump (Func.block f 0).label ] }
  in
  (* The orphan jumps back to the entry, which is also a violation, but
     here we only care that it is unreachable. *)
  let bad = Func.with_blocks f (Array.append (Func.blocks f) [| orphan |]) in
  has_violation "unreachable from the entry" (Check.unreachable_blocks bad)

(* --- the structural checks against their four-walk reference --- *)

let check_inputs =
  lazy
    (Array.of_list
       (List.concat_map
          (fun (_, src) -> (Frontend.Codegen.compile_source src).Prog.funcs)
          (List.filteri
             (fun i _ -> i < List.length Programs.Suite.all + 5)
             Helpers.corpus_and_gen)))

(* [f] with [edits] applied: each puts an instruction that one of the
   checks looks at (a transfer, a target that dangles or names the entry,
   an [Enter], a [Leave] or [Ret]) at a position of some block, or
   deletes the instruction there. *)
let corrupt f edits =
  let blocks = Array.copy (Func.blocks f) in
  let n = Array.length blocks in
  List.iter
    (fun (blk, pos, what, tgt) ->
      let b = blocks.(blk mod n) in
      let target =
        match tgt mod 3 with
        | 0 -> blocks.(0).label
        | 1 -> Label.of_int 424242
        | _ -> blocks.(tgt mod n).label
      in
      let instr =
        match what mod 8 with
        | 0 -> Some (Rtl.Jump target)
        | 1 -> Some (Rtl.Branch (Rtl.Eq, target))
        | 2 -> Some (Rtl.Ijump (Reg.Virt 1, [||]))
        | 3 -> Some (Rtl.Ijump (Reg.Virt 1, [| target |]))
        | 4 -> Some Rtl.Ret
        | 5 -> Some Rtl.Leave
        | 6 -> Some (Rtl.Enter 8)
        | _ -> None
      in
      let k = pos mod (List.length b.instrs + 1) in
      let instrs =
        match instr with
        | Some i ->
          List.filteri (fun j _ -> j < k) b.instrs
          @ (i :: List.filteri (fun j _ -> j >= k) b.instrs)
        | None -> List.filteri (fun j _ -> j <> k) b.instrs
      in
      blocks.(blk mod n) <- { b with instrs })
    edits;
  Func.with_blocks f blocks

let prop_structural_matches_reference =
  let edit = QCheck.(quad small_nat small_nat small_nat small_nat) in
  QCheck.Test.make ~name:"structural checks match the four-walk reference"
    ~count:300
    QCheck.(pair small_nat (list_of_size (Gen.int_range 1 6) edit))
    (fun (pick, edits) ->
      let inputs = Lazy.force check_inputs in
      let f = corrupt inputs.(pick mod Array.length inputs) edits in
      let got = Check.errors f and want = Check_oracle.structural_errors f in
      got = want
      || QCheck.Test.fail_reportf "got:\n  %s\nwant:\n  %s"
           (String.concat "\n  " got) (String.concat "\n  " want))

(* --- the driver's protective boundary --- *)

let source =
  "int main() { int i, s; s = 0; for (i = 0; i < 10; i++) { s += i; } \
   putchar(65 + (s & 15)); putchar(10); return 0; }"

let run_prog machine prog =
  let asm = Sim.Asm.assemble machine prog in
  let res = Sim.Engine.run ~max_steps:1_000_000 asm prog in
  (res.output, res.exit_code)

let test_quarantine_rollback () =
  let machine = Ir.Machine.cisc in
  let opts = Opt.Driver.options ~level:Opt.Driver.Jumps () in
  let expected = run_prog machine (Opt.Driver.compile opts machine source) in
  (* Same compilation with the replication pass corrupting its output:
     the boundary must quarantine it and still produce a correct program
     from the rolled-back IR. *)
  let log = Telemetry.Log.make Telemetry.Log.Memory in
  let diags = ref [] in
  let broken_opts = { opts with Opt.Driver.inject_fault = Some "replicate" } in
  let prog = Opt.Driver.compile ~log ~diags broken_opts machine source in
  let quarantined =
    List.filter_map
      (function
        | Telemetry.Log.Pass_quarantined { pass; code; violations; _ } ->
          Some (pass, code, violations)
        | _ -> None)
      (Telemetry.Log.events log)
  in
  (match quarantined with
  | (pass, code, violations) :: _ ->
    Alcotest.(check string) "quarantined pass" "replicate" pass;
    Alcotest.(check string) "diag code" "malformed-ir" code;
    Alcotest.(check bool) "violations listed" true (violations <> [])
  | [] -> Alcotest.fail "no Pass_quarantined event");
  Alcotest.(check bool) "an Err diagnostic was recorded" true
    (Telemetry.Diag.has_errors !diags);
  Alcotest.(check (pair string int)) "rolled-back program still correct"
    expected (run_prog machine prog)

let test_broken_custom_pass () =
  (* A replicate implementation that raises mid-compilation: the boundary
     converts the crash into a quarantine instead of aborting. *)
  let machine = Ir.Machine.cisc in
  let opts = Opt.Driver.options ~level:Opt.Driver.Jumps () in
  let prog0 = Frontend.Codegen.compile_source source in
  let diags = ref [] in
  let log = Telemetry.Log.make Telemetry.Log.Memory in
  let crash ?allow_irreducible:_ _f = failwith "boom" in
  let prog =
    Prog.map_funcs
      (fun f -> Opt.Driver.optimize_func_with ~log ~diags ~replicate:crash opts machine f)
      prog0
  in
  Alcotest.(check bool) "diagnostic recorded" true
    (Telemetry.Diag.has_errors !diags);
  let codes =
    List.filter_map
      (function
        | Telemetry.Log.Pass_quarantined { code; _ } -> Some code
        | _ -> None)
      (Telemetry.Log.events log)
  in
  Alcotest.(check bool) "pass-raised quarantine" true
    (List.mem "pass-raised" codes);
  (* The rest of the pipeline (including regalloc) still ran. *)
  let out, _ = run_prog machine prog in
  Alcotest.(check string) "output survives the broken pass" "N\n" out

let test_fixpoint_divergence_warning () =
  (* With the iteration cap forced to 1, the do-while loop cannot reach a
     fixpoint on a program its passes still improve: the driver must warn
     (not fail), naming the last pass that reported a change. *)
  let opts =
    { (Opt.Driver.options ~level:Opt.Driver.Jumps ()) with max_iterations = 1 }
  in
  let log = Telemetry.Log.make Telemetry.Log.Memory in
  let diags = ref [] in
  let prog = Opt.Driver.compile ~log ~diags opts Ir.Machine.cisc source in
  let diverged =
    List.filter_map
      (function
        | Telemetry.Log.Fixpoint_diverged { iterations; last_pass; _ } ->
          Some (iterations, last_pass)
        | _ -> None)
      (Telemetry.Log.events log)
  in
  (match diverged with
  | (iterations, last_pass) :: _ ->
    Alcotest.(check int) "iteration cap" 1 iterations;
    Alcotest.(check bool) "names the pass" true (last_pass <> "")
  | [] -> Alcotest.fail "no Fixpoint_diverged event");
  Alcotest.(check bool) "warning only, not an error" false
    (Telemetry.Diag.has_errors !diags);
  Alcotest.(check bool) "a no-convergence diagnostic exists" true
    (List.exists
       (fun d -> d.Telemetry.Diag.code = Telemetry.Diag.No_convergence)
       !diags);
  (* The truncated pipeline still compiles correctly. *)
  let out, _ = run_prog Ir.Machine.cisc prog in
  Alcotest.(check string) "output" "N\n" out

let tests =
  ( "check",
    [
      Alcotest.test_case "clean compiler output" `Quick test_clean;
      Alcotest.test_case "dangling branch target" `Quick test_dangling_target;
      Alcotest.test_case "mid-block transfer" `Quick test_mid_block_transfer;
      QCheck_alcotest.to_alcotest prop_structural_matches_reference;
      Alcotest.test_case "use before def" `Quick test_use_before_def;
      Alcotest.test_case "use after def ok" `Quick test_use_after_def_ok;
      Alcotest.test_case "def on one path only" `Quick test_def_on_one_path_only;
      Alcotest.test_case "duplicate labels across functions" `Quick
        test_duplicate_label_across_functions;
      Alcotest.test_case "unreachable blocks" `Quick test_unreachable_blocks;
      Alcotest.test_case "quarantine and rollback" `Quick test_quarantine_rollback;
      Alcotest.test_case "broken custom pass" `Quick test_broken_custom_pass;
      Alcotest.test_case "fixpoint divergence warning" `Quick
        test_fixpoint_divergence_warning;
    ] )
