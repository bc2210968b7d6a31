(* The operations behind jumprepc's compile, measure, certify and explain
   subcommands: each returns its result, or its [--json] payload, as a
   value, and a typed [failure] instead of exiting, so the subcommands
   only print and exit. *)

module Json = Telemetry.Json
module Diag = Telemetry.Diag

(* A failed operation: the typed diagnostic plus the exit code the CLI
   dies with (1 front-end/pipeline, 2 runtime error, 124 budget). *)
type failure = { diag : Diag.t; exit_code : int }

let fail ?(exit_code = 1) diag = Error { diag; exit_code }

let make_opts ?(verify = false) ?inject_fault ?budget level =
  {
    Opt.Driver.default_options with
    level;
    verify_passes = verify;
    inject_fault;
    budget;
  }

(* Front-end failures as typed diagnostics with a file:line position. *)
let compile_source ?log ?(diags = ref []) ?verdicts opts machine ~path source =
  let err ?exit_code code fmt =
    Printf.ksprintf
      (fun message ->
        fail ?exit_code (Diag.make code ~func:"" ~pass:"" message))
      fmt
  in
  try Ok (Opt.Driver.compile ?log ~diags ?verdicts opts machine source) with
  | Frontend.Lexer.Error (msg, line) ->
    err Diag.Parse_error "%s:%d: lexical error: %s" path line msg
  | Frontend.Parser.Error (msg, line) ->
    err Diag.Parse_error "%s:%d: syntax error: %s" path line msg
  | Frontend.Codegen.Error msg -> err Diag.Semantic_error "%s: %s" path msg
  | Telemetry.Diag.Error d ->
    fail
      (Diag.make d.Diag.code ~func:d.Diag.func ~pass:d.Diag.pass
         (Printf.sprintf "%s: %s" path d.Diag.message))

let func_ujumps f =
  Array.fold_left
    (fun n b ->
      match Flow.Func.terminator b with
      | Some (Ir.Rtl.Jump _) | Some (Ir.Rtl.Ijump _) -> n + 1
      | Some _ | None -> n)
    0 (Flow.Func.blocks f)

(* --- compile: the `--stats-json` object --- *)

let compile_stats ~level ~(machine : Ir.Machine.t) prog =
  let asm = Sim.Asm.assemble machine prog in
  Json.Obj
    [
      ("level", Json.Str (Opt.Driver.level_name level));
      ("machine", Json.Str machine.Ir.Machine.short);
      ("static_instrs", Json.Int (Sim.Asm.static_instrs asm));
      ("static_ujumps", Json.Int (Sim.Asm.static_ujumps asm));
      ("static_nops", Json.Int (Sim.Asm.static_nops asm));
      ("code_bytes", Json.Int (Sim.Asm.code_bytes asm));
      ( "funcs",
        Json.Arr
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("name", Json.Str (Flow.Func.name f));
                   ("instrs", Json.Int (Flow.Func.num_instrs f));
                   ("blocks", Json.Int (Flow.Func.num_blocks f));
                   ("ujumps", Json.Int (func_ujumps f));
                 ])
             prog.Flow.Prog.funcs) );
    ]

(* --- measure: the three-level comparison rows --- *)

let measure_rows ?log ?(verify = false) ~path ~name ~source ~input machine =
  let adhoc ?expected_output level =
    Harness.Measure.run_adhoc
      ~opts:(make_opts ~verify level)
      ?log ~name ~source ~input ?expected_output level machine
  in
  let err ?exit_code code fmt =
    Printf.ksprintf
      (fun message ->
        fail ?exit_code (Diag.make code ~func:"" ~pass:"" message))
      fmt
  in
  try
    (* The SIMPLE run is the reference output the other levels must
       match. *)
    let simple = adhoc Opt.Driver.Simple in
    Ok
      (simple
      :: List.map
           (fun level -> adhoc ~expected_output:simple.output level)
           [ Opt.Driver.Loops; Opt.Driver.Jumps ])
  with
  | Sim.Interp.Runtime_error msg ->
    err ~exit_code:2 Diag.Internal "%s: runtime error: %s" path msg
  | Frontend.Lexer.Error (msg, line) ->
    err Diag.Parse_error "%s:%d: lexical error: %s" path line msg
  | Frontend.Parser.Error (msg, line) ->
    err Diag.Parse_error "%s:%d: syntax error: %s" path line msg
  | Frontend.Codegen.Error msg -> err Diag.Semantic_error "%s: %s" path msg

let measure_json rows =
  Json.Arr (List.map Harness.Measure.to_json rows)

(* --- certify: per-pass translation-validation verdicts --- *)

let certify_report ?inject_fault ~level ~machine ~path source =
  let opts =
    { (make_opts ?inject_fault level) with Opt.Driver.certify = true }
  in
  let diags = ref [] in
  let verdicts = ref [] in
  match compile_source ~diags ~verdicts opts machine ~path source with
  | Error _ as e -> e
  | Ok _prog -> Ok (List.rev !verdicts, List.rev !diags)

let certify_summary verdicts =
  List.fold_left
    (fun (c, u, r) (v : Tv.record) ->
      match v.Tv.verdict with
      | Tv.Certified -> (c + 1, u, r)
      | Tv.Unknown _ -> (c, u + 1, r)
      | Tv.Refuted _ -> (c, u, r + 1))
    (0, 0, 0) verdicts

let certify_json ~target ~level ~(machine : Ir.Machine.t) verdicts =
  let verdict_fields = function
    | Tv.Certified -> []
    | Tv.Unknown { reason; timeout } ->
      [ ("reason", Json.Str reason); ("timeout", Json.Bool timeout) ]
    | Tv.Refuted { reason; path } ->
      [
        ("reason", Json.Str reason);
        ("path", Json.Arr (List.map (fun p -> Json.Str p) path));
      ]
  in
  let certified, unknown, refuted = certify_summary verdicts in
  Json.Obj
    [
      ("target", Json.Str target);
      ("level", Json.Str (Opt.Driver.level_name level));
      ("machine", Json.Str machine.Ir.Machine.short);
      ( "verdicts",
        Json.Arr
          (List.map
             (fun (r : Tv.record) ->
               Json.Obj
                 (("func", Json.Str r.Tv.vfunc)
                 :: ("pass", Json.Str r.Tv.vpass)
                 :: ("verdict", Json.Str (Tv.verdict_name r.Tv.verdict))
                 :: verdict_fields r.Tv.verdict))
             verdicts) );
      ( "summary",
        Json.Obj
          [
            ("certified", Json.Int certified);
            ("unknown", Json.Int unknown);
            ("refuted", Json.Int refuted);
          ] );
    ]

(* --- explain: the per-function replication report --- *)

let explain_report ~level ~machine ~path source =
  (* Trace the whole compilation in memory, then audit what is left. *)
  let log = Telemetry.Log.make Telemetry.Log.Memory in
  match compile_source ~log (make_opts level) machine ~path source with
  | Error _ as e -> e
  | Ok prog -> Ok (prog, Telemetry.Log.events log)

(* A remaining jump's decision as a warning: [Loop_replication] when the
   copy would complete a natural loop, [Code_growth] for a plain copy (the
   message carries its RTL cost), [Jump_residual] when no copy is legal. *)
let diag_of_decision ~func ((src, dst), decision) =
  let code =
    match (decision : Replication.Jumps.decision) with
    | Replicated { loop_completed = true; _ } -> Diag.Loop_replication
    | Replicated _ -> Diag.Code_growth
    | Not_replicated _ -> Diag.Jump_residual
  in
  Diag.make ~severity:Diag.Warn code ~func ~pass:"explain"
    (Printf.sprintf "jump %s -> %s: %s" (Ir.Label.to_string src)
       (Ir.Label.to_string dst)
       (Replication.Jumps.decision_to_string decision))

let decidable_branches f =
  List.map
    (fun (block, target, taken) ->
      Diag.make ~severity:Diag.Warn Diag.Const_branch
        ~func:(Flow.Func.name f) ~pass:"explain"
        (Printf.sprintf "%s: branch to %s is %s" (Ir.Label.to_string block)
           (Ir.Label.to_string target)
           (if taken then "always taken" else "never taken")))
    (Opt.Constfold.decidable_branches f)

let explain_json prog events =
  Json.Arr
    (List.map
       (fun f ->
         let fname = Flow.Func.name f in
         let applied =
           List.length
             (List.filter
                (function
                  | Telemetry.Log.Replication_applied { func; _ } ->
                    String.equal func fname
                  | _ -> false)
                events)
         in
         Json.Obj
           [
             ("func", Json.Str fname);
             ("replicated", Json.Int applied);
             ( "remaining",
               Json.Arr
                 (List.map
                    (fun jd -> Diag.to_json (diag_of_decision ~func:fname jd))
                    (Replication.Jumps.explain f)) );
             ( "decidable",
               Json.Arr (List.map Diag.to_json (decidable_branches f)) );
           ])
       prog.Flow.Prog.funcs)
