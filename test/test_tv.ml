(* The static translation validator and its driver integration. *)

open Ir
open Flow

let source =
  "int main() { int i, s; s = 0; for (i = 0; i < 10; i++) { s += i; } \
   putchar(65 + (s & 15)); putchar(10); return 0; }"

let main_of prog =
  List.find (fun f -> String.equal (Func.name f) "main") prog.Prog.funcs

let run_prog machine prog =
  let asm = Sim.Asm.assemble machine prog in
  let res = Sim.Engine.run ~max_steps:1_000_000 asm prog in
  (res.output, res.exit_code)

let verdict = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Tv.verdict_name v)) (fun a b -> Tv.verdict_name a = Tv.verdict_name b)

(* --- certify_pass on hand-picked function pairs --- *)

let test_identity_certified () =
  let f = main_of (Frontend.Codegen.compile_source source) in
  Alcotest.check verdict "f simulates itself" Tv.Certified
    (Tv.certify_pass ~pass:"cse" ~before:f ~after:f ())

let test_dropped_store_refuted () =
  let f =
    main_of
      (Frontend.Codegen.compile_source
         "int g; int main() { g = 7; return 0; }")
  in
  let is_store = function
    | Rtl.Move (Rtl.Lmem _, _)
    | Rtl.Binop (_, Rtl.Lmem _, _, _)
    | Rtl.Unop (_, Rtl.Lmem _, _) -> true
    | _ -> false
  in
  let dropped = ref false in
  let blocks =
    Array.map
      (fun (b : Func.block) ->
        {
          b with
          Func.instrs =
            List.filter
              (fun i ->
                if (not !dropped) && is_store i then begin
                  dropped := true;
                  false
                end
                else true)
              b.Func.instrs;
        })
      (Func.blocks f)
  in
  Alcotest.(check bool) "a store was dropped" true !dropped;
  let broken = Func.with_blocks f blocks in
  match Tv.certify_pass ~pass:"isel" ~before:f ~after:broken () with
  | Tv.Refuted { path; _ } ->
    Alcotest.(check bool) "counterexample path nonempty" true (path <> [])
  | v ->
    Alcotest.fail
      (Printf.sprintf "expected a refutation, got %s" (Tv.verdict_name v))

let test_gated_passes () =
  let f = main_of (Frontend.Codegen.compile_source source) in
  List.iter
    (fun pass ->
      Alcotest.(check bool)
        (pass ^ " is gated") true
        (Tv.gated pass <> None);
      match Tv.certify_pass ~pass ~before:f ~after:f () with
      | Tv.Unknown { timeout = false; _ } -> ()
      | v ->
        Alcotest.fail
          (Printf.sprintf "%s: expected Unknown, got %s" pass
             (Tv.verdict_name v)))
    [ "regalloc"; "licm"; "strength" ];
  Alcotest.(check bool) "cse is in scope" true (Tv.gated "cse" = None)

let test_fuel_timeout () =
  let f = main_of (Frontend.Codegen.compile_source source) in
  match Tv.certify_pass ~fuel:0 ~pass:"cse" ~before:f ~after:f () with
  | Tv.Unknown { timeout = true; _ } -> ()
  | v ->
    Alcotest.fail
      (Printf.sprintf "expected a timeout, got %s" (Tv.verdict_name v))

(* --- the whole pipeline certifies, including loop rotation --- *)

let certified_compile level =
  let opts =
    { (Opt.Driver.options ~level ()) with Opt.Driver.certify = true }
  in
  let verdicts = ref [] in
  let diags = ref [] in
  let prog = Opt.Driver.compile ~verdicts ~diags opts Ir.Machine.risc source in
  (prog, List.rev !verdicts, !diags)

let test_pipeline_certifies () =
  List.iter
    (fun level ->
      let _, verdicts, _ = certified_compile level in
      Alcotest.(check bool) "verdicts recorded" true (verdicts <> []);
      List.iter
        (fun (r : Tv.record) ->
          match r.Tv.verdict with
          | Tv.Refuted { reason; _ } ->
            Alcotest.fail
              (Printf.sprintf "%s/%s falsely refuted: %s" r.Tv.vfunc
                 r.Tv.vpass reason)
          | _ -> ())
        verdicts)
    [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ]

let test_loop_rotation_certified () =
  (* Loop-condition replication rotates the entry test into the
     pre-header: exactly the catch-up-stepping case. *)
  let _, verdicts, _ = certified_compile Opt.Driver.Loops in
  match
    List.find_opt (fun (r : Tv.record) -> r.Tv.vpass = "replicate") verdicts
  with
  | Some r -> Alcotest.check verdict "replicate certified" Tv.Certified r.Tv.verdict
  | None -> Alcotest.fail "replicate recorded no verdict"

(* --- injected miscompilations are statically refuted and rolled back --- *)

let test_flip_branch_refuted () =
  let machine = Ir.Machine.risc in
  let opts = Opt.Driver.options ~level:Opt.Driver.Jumps () in
  let expected = run_prog machine (Opt.Driver.compile opts machine source) in
  let opts =
    {
      opts with
      Opt.Driver.certify = true;
      inject_fault = Some "isel:flip-branch";
    }
  in
  let verdicts = ref [] in
  let diags = ref [] in
  let prog = Opt.Driver.compile ~verdicts ~diags opts machine source in
  let refuted =
    List.filter
      (fun (r : Tv.record) ->
        match r.Tv.verdict with Tv.Refuted _ -> true | _ -> false)
      !verdicts
  in
  (match refuted with
  | { Tv.vpass = "isel"; verdict = Tv.Refuted { path; _ }; _ } :: _ ->
    Alcotest.(check bool) "counterexample path nonempty" true (path <> [])
  | _ -> Alcotest.fail "flip-branch on isel was not refuted");
  Alcotest.(check bool) "certify-refuted diagnostic" true
    (List.exists
       (fun (d : Telemetry.Diag.t) -> d.code = Telemetry.Diag.Certify_refuted)
       !diags);
  (* The refuted pass was rolled back: the program still runs correctly. *)
  Alcotest.(check (pair string int)) "rolled-back program correct" expected
    (run_prog machine prog)

let test_drop_store_refuted_in_driver () =
  let machine = Ir.Machine.risc in
  let opts =
    {
      (Opt.Driver.options ~level:Opt.Driver.Jumps ()) with
      Opt.Driver.certify = true;
      inject_fault = Some "isel:drop-store";
    }
  in
  let verdicts = ref [] in
  let diags = ref [] in
  (* A global keeps real memory stores in the pre-allocation RTL — locals
     live in virtual registers, leaving drop-store nothing to drop. *)
  let store_source =
    "int g; int main() { int i; for (i = 0; i < 10; i++) { g = g + i; } \
     putchar(65 + (g & 15)); putchar(10); return 0; }"
  in
  ignore (Opt.Driver.compile ~verdicts ~diags opts machine store_source);
  Alcotest.(check bool) "drop-store refuted" true
    (List.exists
       (fun (r : Tv.record) ->
         match r.Tv.verdict with Tv.Refuted _ -> true | _ -> false)
       !verdicts)

let test_unknown_fault_mode_rejected () =
  let opts =
    {
      (Opt.Driver.options ~level:Opt.Driver.Simple ()) with
      Opt.Driver.inject_fault = Some "isel:scramble";
    }
  in
  match Opt.Driver.compile opts Ir.Machine.risc source with
  | _ -> Alcotest.fail "unknown fault mode accepted"
  | exception Telemetry.Diag.Error d ->
    Alcotest.(check bool) "names the mode" true
      (Astring.String.is_infix ~affix:"scramble" d.Telemetry.Diag.message)

(* --- the copyconst memo keyed by physical identity (regression) --- *)

let test_facts_cache_invalidation () =
  let f = main_of (Frontend.Codegen.compile_source source) in
  let facts1 = Tv.copyconst_facts f in
  Alcotest.(check bool) "memo hit returns the same facts" true
    (facts1 == Tv.copyconst_facts f);
  (* Mutating the function yields a fresh physical identity; the memo
     must recompute, never serve the stale array. *)
  let grown =
    Func.with_blocks f
      (Array.append (Func.blocks f)
         [|
           {
             Func.label = Func.fresh_label f;
             instrs = [ Rtl.Jump (Func.block f 0).Func.label ];
           };
         |])
  in
  let facts2 = Tv.copyconst_facts grown in
  Alcotest.(check bool) "mutated function gets fresh facts" false
    (facts1 == facts2);
  match (facts1, facts2) with
  | Some a1, Some a2 ->
    Alcotest.(check bool) "facts cover the mutated shape" true
      (Array.length a2 = Array.length a1 + 1)
  | _ -> Alcotest.fail "copyconst diverged on a loop-free function"

(* --- analysis divergence is a typed diagnostic, not a crash --- *)

let test_divergence_budget_names_analysis () =
  let f = main_of (Frontend.Codegen.compile_source source) in
  let cfg = Cfg.make f in
  let instrs = Array.map (fun (b : Func.block) -> b.Func.instrs) (Func.blocks f) in
  match
    Analysis.Reaching.solve ~max_visits:1 ~graph:(Cfg.graph cfg) ~instrs ()
  with
  | _ -> Alcotest.fail "one visit cannot reach a fixpoint on a loop"
  | exception Analysis.Dataflow.Diverged msg ->
    Alcotest.(check bool) "message names the analysis" true
      (Astring.String.is_prefix ~affix:"analysis reaching:" msg)

let test_divergence_quarantines_pass () =
  let machine = Ir.Machine.risc in
  let opts = Opt.Driver.options ~level:Opt.Driver.Jumps () in
  let prog0 = Frontend.Codegen.compile_source source in
  let diags = ref [] in
  let diverge ?allow_irreducible:_ _f =
    raise (Analysis.Dataflow.Diverged "analysis loopy: no fixpoint")
  in
  let prog =
    Prog.map_funcs
      (fun f ->
        Opt.Driver.optimize_func_with ~diags ~replicate:diverge opts machine f)
      prog0
  in
  Alcotest.(check bool) "analysis-diverged diagnostic" true
    (List.exists
       (fun (d : Telemetry.Diag.t) ->
         d.code = Telemetry.Diag.Analysis_diverged)
       !diags);
  (* The pass was quarantined; the rest of the pipeline still ran. *)
  let out, _ = run_prog machine prog in
  Alcotest.(check string) "output survives the diverging pass" "N\n" out

let tests =
  ( "tv",
    [
      Alcotest.test_case "identity certified" `Quick test_identity_certified;
      Alcotest.test_case "dropped store refuted" `Quick
        test_dropped_store_refuted;
      Alcotest.test_case "gated passes" `Quick test_gated_passes;
      Alcotest.test_case "fuel timeout" `Quick test_fuel_timeout;
      Alcotest.test_case "pipeline certifies" `Quick test_pipeline_certifies;
      Alcotest.test_case "loop rotation certified" `Quick
        test_loop_rotation_certified;
      Alcotest.test_case "flip-branch refuted" `Quick test_flip_branch_refuted;
      Alcotest.test_case "drop-store refuted" `Quick
        test_drop_store_refuted_in_driver;
      Alcotest.test_case "unknown fault mode rejected" `Quick
        test_unknown_fault_mode_rejected;
      Alcotest.test_case "facts cache invalidation" `Quick
        test_facts_cache_invalidation;
      Alcotest.test_case "divergence budget names analysis" `Quick
        test_divergence_budget_names_analysis;
      Alcotest.test_case "divergence quarantines pass" `Quick
        test_divergence_quarantines_pass;
    ] )
