(* jumprepc: command-line driver for the compiler, simulator and
   measurement harness.

     jumprepc compile prog.c -O jumps -m risc --dump-asm
     jumprepc run prog.c -O simple --input data.txt
     jumprepc measure prog.c
     jumprepc bench wc                                                     *)

open Cmdliner
module Diag = Telemetry.Diag
module Json = Telemetry.Json

(* `jumprepc report … | head` and friends: with SIGPIPE ignored, a write
   to a closed pipe surfaces as [Sys_error] (EPIPE), which the typed
   backstop at the bottom turns into a clean io-error diagnostic instead
   of a raw signal death. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* The one JSON emission path: every machine-readable output (compile/run
   --stats-json, measure, bench --stats-json, explain --json, certify
   --json) assembles a Json.t and prints it here with Json.to_string, the
   only JSON renderer. *)
let print_json j = print_endline (Json.to_string j)

(* Every user-facing failure funnels through a typed diagnostic: one
   "jumprepc: error: [code] ..." line on stderr and a clean nonzero exit,
   never a raw OCaml backtrace. *)
let fail_diag ?(code = 1) d =
  Printf.eprintf "jumprepc: error: %s\n" (Diag.to_string d);
  exit code

let read_file path =
  try
    if Sys.is_directory path then raise (Sys_error (path ^ ": Is a directory"));
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error msg ->
    (* [msg] already names the file ("foo.c: No such file or directory"). *)
    fail_diag (Diag.make Diag.Io_error ~func:"" ~pass:"" msg)

(* --- common arguments --- *)

let level_arg =
  let level_conv =
    Arg.conv
      ( (fun s ->
          match Opt.Driver.level_of_string s with
          | Some l -> Ok l
          | None -> Error (`Msg (Printf.sprintf "unknown level %S" s))),
        fun ppf l -> Format.pp_print_string ppf (Opt.Driver.level_name l) )
  in
  Arg.(
    value
    & opt level_conv Opt.Driver.Jumps
    & info [ "O"; "level" ] ~docv:"LEVEL"
        ~doc:"Optimization level: $(b,simple), $(b,loops) or $(b,jumps).")

let machine_arg =
  let machine_conv =
    Arg.conv
      ( (fun s ->
          match Ir.Machine.of_short s with
          | Some m -> Ok m
          | None -> Error (`Msg (Printf.sprintf "unknown machine %S" s))),
        fun ppf m -> Format.pp_print_string ppf m.Ir.Machine.short )
  in
  Arg.(
    value
    & opt machine_conv Ir.Machine.risc
    & info [ "m"; "machine" ] ~docv:"MACHINE"
        ~doc:"Target machine model: $(b,risc) or $(b,cisc).")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"C source file.")

let target_doc = "A C source file or a bundled benchmark name (see $(b,list))."

(* A TARGET names a file if one exists, else a bundled benchmark; anything
   else is a usage error (exit 2). *)
let source_of_target cmd t =
  if Sys.file_exists t then read_file t
  else
    match Programs.Suite.find t with
    | Some b -> b.source
    | None ->
      Printf.eprintf
        "jumprepc: %s: %s is neither a file nor a bundled benchmark\n" cmd t;
      exit 2

(* --- telemetry arguments (shared by compile/run/measure/bench) --- *)

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace-passes" ]
        ~doc:
          "Emit the structured optimization event log as JSONL: one event \
           per pass (with instruction/block/jump deltas and timing), per \
           replication decision, per fixpoint iteration and per register \
           spill.  Written to stderr unless $(b,--trace-out) names a file.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "trace-out" ] ~docv:"FILE"
        ~doc:"Write the JSONL event trace to $(docv) (implies \
              $(b,--trace-passes)).")

let stats_json_arg =
  Arg.(
    value & flag
    & info [ "stats-json" ]
        ~doc:"Print a machine-readable JSON stats object on stdout.")

(* --- robustness arguments (shared by compile/run/measure/fuzz) --- *)

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify-passes" ]
        ~doc:
          "Expensive per-pass verification: dominance-based def-before-use \
           checking, program-level label uniqueness, and a differential \
           execution oracle that re-runs small functions after every \
           changing pass.  Cheap structural checks are always on.")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit with status 3 if any pass was quarantined (the default is \
           to warn, compile from the rolled-back IR, and exit 0).")

(* A malformed spec is a usage error, rejected before anything compiles
   (it would otherwise surface as a compile failure of every program). *)
let inject_fault_arg =
  let validate spec =
    (match Option.map Opt.Driver.parse_fault spec with
    | _ -> ()
    | exception Diag.Error d -> fail_diag ~code:2 d);
    spec
  in
  Term.(
    const validate
    $ Arg.(
        value
        & opt (some string) None
        & info [ "inject-fault" ] ~docv:"PASS[:MODE]"
            ~doc:
              "Testing only: corrupt the named pass's output to exercise the \
               detection paths.  Modes: $(b,dangling-jump) (ill-formed IR, \
               caught by the verifier — the default), $(b,flip-branch) and \
               $(b,drop-store) (well-formed miscompilations, caught by the \
               static certifier under $(b,--certify) or by the execution \
               oracle under $(b,--verify-passes))."))

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Static translation validation: after every changing pass, try \
           to prove the output simulates the input.  A refutation \
           quarantines the pass and rolls the function back with a \
           $(b,certify-refuted) diagnostic carrying the counterexample \
           path; uncertifiable passes warn.  See also the $(b,certify) \
           subcommand for per-pass verdict reports.")

(* Shared by fuzz and the bench drivers: deterministic worker-level fault
   injection against the pool supervisor. *)
let chaos_conv =
  Arg.conv
    ( (fun s ->
        match Harness.Pool.chaos_of_string s with
        | Ok c -> Ok c
        | Error e -> Error (`Msg e)),
      fun ppf (c : Harness.Pool.chaos) ->
        Format.fprintf ppf "crash:%g,hang:%g,alloc:%g,seed:%d" c.crash c.hang
          c.alloc c.chaos_seed )

let chaos_arg =
  Arg.(
    value
    & opt (some chaos_conv) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "Testing only: inject deterministic worker faults to drill the \
           pool supervisor.  $(docv) is a comma-separated list of \
           $(b,crash), $(b,hang) and $(b,alloc), each optionally \
           $(b,:RATE) (default 0.1), plus $(b,seed:N) — e.g. \
           $(b,crash:0.2,hang:0.05,seed:7).  Faults are a pure function \
           of (seed, task, attempt), so completed results are identical \
           to an undisturbed run.")

let report_diags diags =
  List.iter
    (fun d ->
      Printf.eprintf "jumprepc: %s: %s\n"
        (match d.Telemetry.Diag.severity with
        | Telemetry.Diag.Warn -> "warning"
        | Telemetry.Diag.Err -> "error")
        (Telemetry.Diag.to_string d))
    (List.rev !diags)

(* [--strict]: quarantines and other pipeline errors become exit 3. *)
let strict_exit strict diags =
  if strict && Telemetry.Diag.has_errors !diags then exit 3

(* --- budget arguments (compile/run) --- *)

let wall_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "wall-budget" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget for the invocation.  The replication passes \
           poll it; when it expires, the affected function degrades to the \
           next-cheaper level (JUMPS to LOOPS to SIMPLE) with a \
           $(b,budget-exhausted) warning instead of aborting.  Under \
           $(b,run), execution polls it too and exits 124 on expiry.")

let growth_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "growth-budget" ] ~docv:"PCT"
        ~doc:
          "Cap replication code growth at $(docv) percent of each \
           function's input size (0 forbids growth; the paper's worst \
           observed case is about 60).  Exceeding it degrades the function \
           to the next-cheaper level with a $(b,budget-exhausted) warning.")

let make_budget wall growth =
  match wall, growth with
  | None, None -> None
  | deadline, growth -> Some (Telemetry.Budget.make ?deadline ?growth ())

(* The log selected by the trace flags, and the flush/close to run last. *)
let make_log trace trace_out =
  match trace, trace_out with
  | false, None -> (Telemetry.Log.null, fun () -> ())
  | _, Some path ->
    let oc = open_out path in
    (Telemetry.Log.make (Telemetry.Log.Jsonl oc), fun () -> close_out oc)
  | true, None ->
    (Telemetry.Log.make (Telemetry.Log.Jsonl stderr), fun () -> flush stderr)

(* A failed operation ({!Ops}): its typed-diagnostic death. *)
let fail_op (f : Ops.failure) = fail_diag ~code:f.exit_code f.diag

(* Surface front-end failures as typed diagnostics with a file:line
   position, not OCaml backtraces (the mapping lives in [Ops]). *)
let compile_source ?log ?diags opts machine ~path source =
  match Ops.compile_source ?log ?diags opts machine ~path source with
  | Ok prog -> prog
  | Error f -> fail_op f

let compile_prog ?log ?diags opts machine path =
  compile_source ?log ?diags opts machine ~path (read_file path)

(* --- compile --- *)

let compile_cmd =
  let dump_rtl =
    Arg.(value & flag & info [ "dump-rtl" ] ~doc:"Print the optimized RTL.")
  in
  let dump_asm =
    Arg.(
      value & flag
      & info [ "dump-asm" ] ~doc:"Print the assembled code with addresses.")
  in
  let run level machine path dump_rtl dump_asm trace trace_out stats_json
      verify certify strict inject_fault wall_budget growth_budget =
    let log, finish = make_log trace trace_out in
    let diags = ref [] in
    let budget = make_budget wall_budget growth_budget in
    let prog =
      compile_prog ~log ~diags
        { (Ops.make_opts ~verify ?inject_fault ?budget level) with certify }
        machine path
    in
    if dump_rtl || not (dump_asm || stats_json) then
      List.iter
        (fun f -> Format.printf "%a@." Flow.Func.pp f)
        prog.Flow.Prog.funcs;
    if dump_asm then begin
      let asm = Sim.Asm.assemble machine prog in
      List.iter (fun f -> Format.printf "%a@." Sim.Asm.pp_afunc f) asm.funcs;
      Printf.printf
        "\n%d instructions, %d unconditional jumps, %d nops, %d code bytes\n"
        (Sim.Asm.static_instrs asm)
        (Sim.Asm.static_ujumps asm)
        (Sim.Asm.static_nops asm)
        (Sim.Asm.code_bytes asm);
      (* Displacement summary, when the pass attached plans (CISC). *)
      let plans =
        List.filter_map Flow.Func.encoding prog.Flow.Prog.funcs
      in
      if plans <> [] then begin
        let sum f = List.fold_left (fun n p -> n + f p) 0 plans in
        Printf.printf
          "displacement: %d short, %d word, %d long (%d bytes, fixed %d)\n"
          (sum (fun p -> p.Ir.Encode.shorts))
          (sum (fun p -> p.Ir.Encode.words))
          (sum (fun p -> p.Ir.Encode.longs))
          (sum (fun p -> p.Ir.Encode.total))
          (sum (fun p -> p.Ir.Encode.fixed_total))
      end
    end;
    if stats_json then
      print_json (Ops.compile_stats ~level ~machine prog);
    report_diags diags;
    finish ();
    strict_exit strict diags
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a C-subset file and print the result")
    Term.(
      const run $ level_arg $ machine_arg $ file_arg $ dump_rtl $ dump_asm
      $ trace_arg $ trace_out_arg $ stats_json_arg $ verify_arg $ certify_arg
      $ strict_arg $ inject_fault_arg $ wall_budget_arg $ growth_budget_arg)

(* --- run --- *)

let run_cmd =
  let input =
    Arg.(
      value
      & opt (some string) None
      & info [ "i"; "input" ] ~docv:"TEXT" ~doc:"Standard input for the program.")
  in
  let input_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "input-file" ] ~docv:"FILE" ~doc:"Read standard input from a file.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print execution statistics.")
  in
  let trace =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace" ] ~docv:"N"
          ~doc:"Print the first $(docv) executed instructions to stderr.")
  in
  let max_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Abort execution after $(docv) instructions; exhausting the \
             budget is reported as a timeout (exit 124), not a runtime \
             error.")
  in
  let run level machine path input input_file stats trace max_steps
      trace_passes trace_out stats_json verify certify strict inject_fault
      wall_budget growth_budget =
    let log, finish = make_log trace_passes trace_out in
    let diags = ref [] in
    let budget = make_budget wall_budget growth_budget in
    let prog =
      compile_prog ~log ~diags
        { (Ops.make_opts ~verify ?inject_fault ?budget level) with certify }
        machine path
    in
    let asm = Sim.Asm.assemble machine prog in
    let input =
      match input_file with
      | Some f -> read_file f
      | None -> Option.value ~default:"" input
    in
    let on_fetch =
      match trace with
      | None -> fun ~addr:_ ~size:_ -> ()
      | Some n ->
        let by_addr = Sim.Asm.addr_index asm in
        let left = ref n in
        fun ~addr ~size:_ ->
          if !left > 0 then begin
            decr left;
            let fname, i = Hashtbl.find by_addr addr in
            Printf.eprintf "%06x %-12s %s\n" addr fname
              (Ir.Rtl.instr_to_string i)
          end
    in
    let res =
      try Sim.Engine.run ~input ~on_fetch ~log ?max_steps ?budget asm prog with
      | Sim.Interp.Runtime_error msg ->
        Printf.eprintf "%s: runtime error: %s\n" path msg;
        exit 2
      | Telemetry.Budget.Exhausted r ->
        Printf.eprintf "%s: %s budget exhausted during execution\n" path
          (Telemetry.Budget.reason_name r);
        exit 124
    in
    print_string res.output;
    if res.timed_out then
      Printf.eprintf "%s: timeout: step limit exhausted after %d instructions\n"
        path res.counts.total;
    if stats then
      Printf.eprintf
        "exit=%d instructions=%d cond-branches=%d jumps=%d ijumps=%d calls=%d \
         nops=%d\n"
        res.exit_code res.counts.total res.counts.cond_branches
        res.counts.jumps res.counts.ijumps res.counts.calls res.counts.nops;
    if stats_json then
      print_json
        (Json.Obj
           [
             ("level", Json.Str (Opt.Driver.level_name level));
             ("machine", Json.Str machine.Ir.Machine.short);
             ("exit", Json.Int res.exit_code);
             ("dyn_instrs", Json.Int res.counts.total);
             ("cond_branches", Json.Int res.counts.cond_branches);
             ("jumps", Json.Int res.counts.jumps);
             ("ijumps", Json.Int res.counts.ijumps);
             ("calls", Json.Int res.counts.calls);
             ("rets", Json.Int res.counts.rets);
             ("nops", Json.Int res.counts.nops);
             ("loads", Json.Int res.counts.loads);
             ("stores", Json.Int res.counts.stores);
             ("static_instrs", Json.Int (Sim.Asm.static_instrs asm));
             ("static_ujumps", Json.Int (Sim.Asm.static_ujumps asm));
             ("static_nops", Json.Int (Sim.Asm.static_nops asm));
           ]);
    report_diags diags;
    finish ();
    strict_exit strict diags;
    exit res.exit_code
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a C-subset file")
    Term.(
      const run $ level_arg $ machine_arg $ file_arg $ input $ input_file
      $ stats $ trace $ max_steps $ trace_arg $ trace_out_arg $ stats_json_arg
      $ verify_arg $ certify_arg $ strict_arg $ inject_fault_arg
      $ wall_budget_arg $ growth_budget_arg)

(* --- measure --- *)

let measure_cmd =
  let input =
    Arg.(
      value
      & opt (some file) None
      & info [ "input-file" ] ~docv:"FILE" ~doc:"Standard input from a file.")
  in
  (* Mean miss ratio over the eight paper cache configurations: the one
     cache column of the comparison table. *)
  let mean_miss (m : Harness.Measure.t) =
    let ratios =
      List.map (fun (c : Harness.Measure.cache_stats) -> c.miss_ratio) m.caches
    in
    100.0
    *. (List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios))
  in
  let run machine path input_file trace trace_out stats_json verify =
    let source = read_file path in
    let input = Option.map read_file input_file |> Option.value ~default:"" in
    let log, finish = make_log trace trace_out in
    let rows =
      match
        Ops.measure_rows ~log ~verify ~path
          ~name:(Filename.basename path) ~source ~input machine
      with
      | Ok rows -> rows
      | Error (f : Ops.failure) when f.exit_code = 2 ->
        (* A simulated-program fault keeps its bare one-line rendering
           (no "jumprepc: error:" prefix), as it always had. *)
        Printf.eprintf "%s\n" f.diag.Diag.message;
        exit 2
      | Error f -> fail_op f
    in
    if stats_json then print_json (Ops.measure_json rows)
    else begin
      Printf.printf "%-8s %10s %10s %10s %10s %8s  %s\n" "level" "static"
        "dynamic" "dyn-jumps" "nops" "miss%" "status";
      List.iter
        (fun (m : Harness.Measure.t) ->
          Printf.printf "%-8s %10d %10d %10d %10d %8.2f  %s\n"
            (Opt.Driver.level_name m.level)
            m.static_instrs m.dyn_instrs m.dyn_ujumps m.dyn_nops (mean_miss m)
            (if m.timed_out then "TIMEOUT"
             else if m.output_ok then "ok"
             else "MISMATCH"))
        rows
    end;
    finish ();
    if List.exists (fun (m : Harness.Measure.t) -> m.timed_out) rows
    then begin
      Printf.eprintf "%s: step limit exhausted at some optimization level\n"
        path;
      exit 1
    end;
    if List.exists (fun (m : Harness.Measure.t) -> not m.output_ok) rows
    then begin
      Printf.eprintf "%s: output differs between optimization levels\n" path;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "measure"
       ~doc:"Compare the three optimization levels on one source file")
    Term.(
      const run $ machine_arg $ file_arg $ input $ trace_arg $ trace_out_arg
      $ stats_json_arg $ verify_arg)

(* --- bench: run a bundled benchmark --- *)

let bench_cmd =
  let bench_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Benchmark name (see $(b,list)).")
  in
  let run level machine name trace trace_out stats_json verify =
    match Programs.Suite.find name with
    | None ->
      Printf.eprintf "unknown benchmark %s\n" name;
      exit 1
    | Some b ->
      let log, finish = make_log trace trace_out in
      let opts = if verify then Some (Ops.make_opts ~verify level) else None in
      let m = Harness.Measure.run ?opts ~log b level machine in
      if stats_json then print_json (Harness.Measure.to_json m)
      else begin
        Printf.printf
          "%s at %s on %s:\n  static %d instrs (%d jumps, %d nops, %d bytes)\n\
          \  dynamic %d instrs (%d jumps, %d nops)\n  output %s\n"
          b.name
          (Opt.Driver.level_name level)
          machine.Ir.Machine.name m.static_instrs m.static_ujumps m.static_nops
          m.code_bytes m.dyn_instrs m.dyn_ujumps m.dyn_nops
          (if m.timed_out then "TIMEOUT (step limit exhausted)"
           else if m.output_ok then "matches the gcc-verified expectation"
           else "MISMATCH");
        List.iter
          (fun (c : Harness.Measure.cache_stats) ->
            Printf.printf "  cache %-16s miss ratio %.4f  fetch cost %d\n"
              (Icache.config_name c.config)
              c.miss_ratio c.fetch_cost)
          m.caches
      end;
      finish ();
      if not m.output_ok then exit 1
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Measure one bundled benchmark")
    Term.(
      const run $ level_arg $ machine_arg $ bench_name $ trace_arg
      $ trace_out_arg $ stats_json_arg $ verify_arg)

(* --- campaign store plumbing (fuzz/certify; the bench driver has
   its own copy of the flags) --- *)

let store_arg =
  Arg.(
    value & opt string ""
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Content-addressed result store directory: completed results \
           are committed there, and $(b,--resume) replays them so a \
           killed campaign recomputes only the missing delta.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resolve tasks against the store ($(b,--store)) before \
           computing anything; a corrupted entry is recomputed after a \
           $(b,store-corrupt) warning, never trusted.")

let warn_diag d =
  Printf.eprintf "jumprepc: warning: %s\n" (Telemetry.Diag.to_string d)

(* --- certify: per-pass translation-validation verdicts --- *)

let certify_cmd =
  let targets =
    Arg.(value & pos_all string [] & info [] ~docv:"TARGET" ~doc:target_doc)
  in
  let benches =
    Arg.(
      value & flag
      & info [ "benches" ] ~doc:"Certify every bundled benchmark as well.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Machine-readable output: a JSON array with one object per \
             target, each carrying its per-pass verdicts (with reasons \
             and counterexample paths) and summary counts.")
  in
  let run level machine targets benches json inject_fault store resume =
    if resume && store = "" then begin
      Printf.eprintf "jumprepc: certify: --resume requires --store DIR\n";
      exit 2
    end;
    let targets =
      targets
      @ (if benches then
           List.map (fun (b : Programs.Suite.benchmark) -> b.name)
             Programs.Suite.all
         else [])
    in
    if targets = [] then begin
      Printf.eprintf
        "jumprepc: certify: no targets (name files or benchmarks, or pass \
         --benches)\n";
      exit 2
    end;
    let st = if store = "" then None else Some (Campaign.Store.open_ store) in
    (* Only bundled benchmarks are cacheable: a file target's bytes are
       not part of {!Campaign.Key.certify}. *)
    let key_of t =
      match st with
      | Some _ when not (Sys.file_exists t) ->
        Option.fold ~none:""
          ~some:(Campaign.Key.certify ~level ~machine ~inject_fault)
          (Programs.Suite.find t)
      | _ -> ""
    in
    (* Certify one target and render its report to its cacheable entry:
       the stdout text block, the --json array element, the exit verdict
       and the stderr diagnostic lines — everything a resumed run must
       replay byte-for-byte. *)
    let entry t =
      let verdicts, diags =
        match
          Ops.certify_report ?inject_fault ~level ~machine ~path:t
            (source_of_target "certify" t)
        with
        | Error f -> fail_op f
        | Ok r -> r
      in
      let buf = Buffer.create 256 in
      let certified, unknown, refuted = Ops.certify_summary verdicts in
      Buffer.add_string buf
        (Printf.sprintf "%s: %d certified, %d unknown, %d refuted\n" t
           certified unknown refuted);
      List.iter
        (fun (r : Tv.record) ->
          match r.Tv.verdict with
          | Tv.Certified -> ()
          | Tv.Unknown { reason; timeout } ->
            Buffer.add_string buf
              (Printf.sprintf "  %s/%s: unknown%s: %s\n" r.Tv.vfunc r.Tv.vpass
                 (if timeout then " (timeout)" else "")
                 reason)
          | Tv.Refuted { reason; path } ->
            Buffer.add_string buf
              (Printf.sprintf "  %s/%s: REFUTED: %s\n    path: %s\n" r.Tv.vfunc
                 r.Tv.vpass reason
                 (String.concat " -> " path)))
        verdicts;
      let stderr_line d =
        Json.Str
          (Printf.sprintf "jumprepc: %s: %s"
             (match d.Telemetry.Diag.severity with
             | Telemetry.Diag.Warn -> "warning"
             | Telemetry.Diag.Err -> "error")
             (Telemetry.Diag.to_string d))
      in
      [
        ("kind", Json.Str "certify/1");
        ("target", Json.Str t);
        ("text", Json.Str (Buffer.contents buf));
        ( "json",
          Json.Str
            (Json.to_string (Ops.certify_json ~target:t ~level ~machine verdicts))
        );
        ("refuted", Json.Bool (refuted > 0));
        ("stderr", Json.Arr (List.map stderr_line diags));
      ]
    in
    let decode ~cached e =
      let fstr n = Option.bind (Json.member n e) Json.get_string in
      let lines =
        Option.map
          (List.filter_map Json.get_string)
          (Option.bind (Json.member "stderr" e) Json.to_list)
      in
      match
        ( fstr "text",
          fstr "json",
          Option.bind (Json.member "refuted" e) Json.get_bool,
          lines )
      with
      | Some text, Some jsonel, Some anyref, Some lines ->
        (* The element has no floats, so it prints back byte for byte. *)
        Result.map
          (fun j -> (text, j, anyref, lines, cached))
          (Json.parse jsonel)
      | _ -> Error "entry is missing certify fields"
    in
    let answers, corrupt, _ =
      Campaign.Runner.run ?store:st ~resume ~retries:0
        ~handler:(fun _ t ->
          Campaign.Runner.answer ?store:st ~key:(key_of t) (fun () ->
              (entry t, [])))
        ~decode
        (List.map (fun t -> (key_of t, t)) targets)
    in
    List.iter warn_diag corrupt;
    let reports =
      List.map
        (function
          | Harness.Pool.Done r -> r
          | Crashed { exn; _ } -> raise exn
          (* No deadline and no chaos: an attempt can only crash. *)
          | Timed_out _ -> assert false)
        answers
    in
    if json then
      print_json (Json.Arr (List.map (fun (_, j, _, _, _) -> j) reports))
    else List.iter (fun (text, _, _, _, _) -> print_string text) reports;
    (* Pipeline diagnostics (quarantines, warns) go to stderr as usual —
       cached targets replay the lines they produced when computed. *)
    List.iter
      (fun (_, _, _, lines, _) ->
        List.iter (fun l -> Printf.eprintf "%s\n" l) lines)
      reports;
    let cached = List.length (List.filter (fun (_, _, _, _, c) -> c) reports) in
    if st <> None then
      Printf.eprintf
        "jumprepc: certify campaign: %d targets, %d cached, %d computed\n"
        (List.length targets) cached
        (List.length targets - cached);
    if List.exists (fun (_, _, anyref, _, _) -> anyref) reports then exit 1
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Statically validate the optimizer on the given targets: after \
          every changing pass, prove the output simulates the input \
          (certified), or report a counterexample path (refuted, exit 1), \
          or conservatively give up (unknown).  No execution involved; \
          pair with $(b,--inject-fault PASS:flip-branch) to watch a \
          miscompilation get caught")
    Term.(
      const run $ level_arg $ machine_arg $ targets $ benches $ json
      $ inject_fault_arg $ store_arg $ resume_arg)

(* --- explain: per-function replication report --- *)

let explain_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Machine-readable output: one JSON object per function with the \
             replication count, and the remaining jumps and the decidable \
             branches as diagnostic objects.")
  in
  let target =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"TARGET" ~doc:target_doc)
  in
  let run level machine path json =
    (* Trace the whole compilation in memory, then audit what is left
       ({!Ops.explain_report}). *)
    let prog, events =
      match
        Ops.explain_report ~level ~machine ~path
          (source_of_target "explain" path)
      with
      | Ok r -> r
      | Error f -> fail_op f
    in
    if json then begin
      print_json (Ops.explain_json prog events);
      exit 0
    end;
    let total_applied = ref 0
    and total_remaining = ref 0
    and total_decidable = ref 0 in
    List.iter
      (fun f ->
        let fname = Flow.Func.name f in
        Printf.printf "function %s:\n" fname;
        let applied =
          List.filter_map
            (function
              | Telemetry.Log.Replication_applied
                  { func; jump_from; jump_to; mode; seq; cost; loop_completed }
                when String.equal func fname ->
                Some (jump_from, jump_to, mode, seq, cost, loop_completed)
              | _ -> None)
            events
        in
        if applied = [] then print_endline "  no jumps replicated"
        else begin
          Printf.printf "  replicated during compilation (%d):\n"
            (List.length applied);
          List.iter
            (fun (jump_from, jump_to, mode, seq, cost, loop_completed) ->
              incr total_applied;
              Printf.printf "    %s -> %s: %s copy of %d block%s (%d RTLs)%s\n"
                jump_from jump_to mode (List.length seq)
                (if List.length seq = 1 then "" else "s")
                cost
                (if loop_completed then " [loop completed]" else ""))
            applied
        end;
        (match Replication.Jumps.explain f with
        | [] -> print_endline "  remaining unconditional jumps: none"
        | remaining ->
          Printf.printf "  remaining unconditional jumps (%d):\n"
            (List.length remaining);
          List.iter
            (fun ((from_l, to_l), decision) ->
              incr total_remaining;
              Printf.printf "    %s -> %s: %s\n"
                (Ir.Label.to_string from_l)
                (Ir.Label.to_string to_l)
                (Replication.Jumps.decision_to_string decision))
            remaining);
        match Ops.decidable_branches f with
        | [] -> print_endline "  decidable branches: none"
        | decidable ->
          Printf.printf "  decidable branches (%d):\n" (List.length decidable);
          List.iter
            (fun (d : Diag.t) ->
              incr total_decidable;
              Printf.printf "    %s\n" d.message)
            decidable)
      prog.Flow.Prog.funcs;
    Printf.printf "total: %d replicated, %d remaining, %d decidable\n"
      !total_applied !total_remaining !total_decidable
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Audit replication decisions: for every unconditional jump, which \
          shortest-path sequence replaced it, or the concrete reason none \
          could; and every conditional branch that constant facts decide, \
          a folding chance replication created")
    Term.(const run $ level_arg $ machine_arg $ target $ json)

(* --- fuzz: differential fuzzing with automatic delta reduction --- *)

let fuzz_cmd =
  let seeds =
    Arg.(
      value & opt int 100
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of random programs to try.")
  in
  let start =
    Arg.(
      value & opt int 0
      & info [ "start" ] ~docv:"N"
          ~doc:"First seed (campaigns are deterministic per seed).")
  in
  let out_dir =
    Arg.(
      value
      & opt string "fuzz-failures"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for reduced reproducers (created if missing).")
  in
  let max_steps =
    Arg.(
      value
      & opt int 3_000_000
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Per-run instruction budget; exhausting it counts as a timeout \
             failure.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"No per-seed progress on stderr.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Harness.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker processes for the campaign (default \\$JUMPREP_JOBS or \
             1; 1 runs in-process).  Results are identical at any job count.")
  in
  let run seeds start out_dir max_steps quiet jobs verify inject_fault chaos
      store resume =
    if resume && store = "" then begin
      Printf.eprintf "jumprepc: fuzz: --resume requires --store DIR\n";
      exit 2
    end;
    let on_seed seed outcome =
      if not quiet then
        match outcome with
        | None -> ()
        | Some (f : Harness.Fuzz.failure) ->
          Printf.eprintf "seed %d: %s at %s: %s\n%!" seed
            (Harness.Fuzz.kind_name f.kind)
            f.config f.detail
    in
    let jobs = Harness.Pool.clamp_jobs ~what:"-j" jobs in
    let st = if store = "" then None else Some (Campaign.Store.open_ store) in
    let r =
      Campaign.Runner.fuzz ?store:st ~resume ~max_steps ~verify ?inject_fault
        ~out_dir ~start ~on_seed
        ~workers:(if jobs > 1 then jobs else 0)
        ~worker_argv:
          (Array.of_list
             (Sys.executable_name :: "worker"
             :: (if store = "" then [] else [ "--store"; store ])))
        ?chaos ~seeds ()
    in
    List.iter warn_diag r.fz_diags;
    List.iter
      (fun (seed, (f : Harness.Fuzz.failure), path) ->
        Printf.printf "seed %d: %s at %s, reduced reproducer: %s\n" seed
          (Harness.Fuzz.kind_name f.kind)
          f.config path)
      r.fz_failures;
    List.iter
      (fun (seed, detail) ->
        Printf.printf "seed %d: no verdict, task %s\n" seed detail)
      r.fz_aborted;
    if st <> None then
      Printf.eprintf "jumprepc: fuzz campaign: %d seeds, %d cached, %d computed\n"
        r.fz_seeds r.fz_cached (r.fz_seeds - r.fz_cached);
    Printf.printf "fuzz: %d seeds, %d failures%s\n" r.fz_seeds
      (List.length r.fz_failures)
      (if chaos = None then ""
       else
         Printf.sprintf
           ", %d aborted (chaos: %d faults injected, %d retries, %d respawns)"
           (List.length r.fz_aborted)
           (Harness.Pool.injected r.fz_pool)
           r.fz_pool.Harness.Pool.retried r.fz_pool.Harness.Pool.respawned);
    if r.fz_failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the compiler: random C-subset programs across \
          every (level, machine) configuration against the SIMPLE/cisc \
          reference, with failing programs delta-reduced to minimal \
          reproducers")
    Term.(
      const run $ seeds $ start $ out_dir $ max_steps $ quiet $ jobs
      $ verify_arg $ inject_fault_arg $ chaos_arg $ store_arg $ resume_arg)

(* --- report: render the bench sweep's JSON into paper-shaped tables --- *)

let report_cmd =
  let results_arg =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"RESULTS"
          ~doc:
            "A $(b,BENCH_results.json) document (default \
             $(b,BENCH_results.json) in the current directory); with \
             $(b,--compare), exactly two of them.")
  in
  let compare_flag =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Delta report between two sweeps: $(b,jumprepc report --compare \
             A.json B.json) lists measurements present in only one, every \
             count, verdict, cache miss ratio, fetch cost and counter that \
             differs, and the Table-5 means side by side.  Exits 1 when the \
             sweeps differ.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the markdown report to $(docv) instead of stdout.")
  in
  let dat_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dat" ] ~docv:"DIR"
          ~doc:
            "Also write gnuplot-ready tab-separated $(b,.dat) files \
             (per-program instruction changes, per-size cache deltas) into \
             $(docv), created if missing.")
  in
  let events_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Append an event-count summary of a telemetry JSONL stream \
             (from $(b,--trace-out)) to the report.")
  in
  let title_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "title" ] ~docv:"TITLE"
          ~doc:"Report title (default derives from the input file name).")
  in
  let load path =
    let invalid e = "invalid JSON: " ^ e in
    match
      Result.bind
        (Result.map_error invalid (Json.parse (read_file path)))
        Report.doc_of_json
    with
    | Ok d -> d
    | Error e ->
      fail_diag
        (Diag.make Diag.Io_error ~func:"" ~pass:""
           (Printf.sprintf "%s: %s" path e))
  in
  let emit out text =
    match out with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.eprintf "jumprepc: report: wrote %s\n" path
  in
  let run files compare out dat events title =
    if compare then begin
      match files with
      | [ a; b ] ->
        let text, differences =
          Report.compare_docs ~name_a:a ~name_b:b (load a) (load b)
        in
        emit out text;
        if differences > 0 then exit 1
      | _ ->
        Printf.eprintf
          "jumprepc: report: --compare takes exactly two RESULTS files\n";
        exit 2
    end
    else begin
      let path =
        match files with
        | [] -> "BENCH_results.json"
        | [ p ] -> p
        | _ ->
          Printf.eprintf
            "jumprepc: report: more than one RESULTS file (did you mean \
             --compare?)\n";
          exit 2
      in
      let doc = load path in
      let title =
        Option.value title
          ~default:(Printf.sprintf "Benchmark report (%s)" path)
      in
      let md = Report.render ~title doc in
      let md =
        match events with
        | None -> md
        | Some f -> md ^ Report.summarize_events (read_file f)
      in
      emit out md;
      match dat with
      | None -> ()
      | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (name, contents) ->
            let p = Filename.concat dir name in
            let oc = open_out p in
            output_string oc contents;
            close_out oc;
            Printf.eprintf "jumprepc: report: wrote %s\n" p)
          (Report.dat_files doc)
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a bench sweep's BENCH_results.json into the paper-shaped \
          markdown tables (static/dynamic instruction changes, \
          unconditional-jump percentages, cache deltas), gnuplot data \
          files, and sweep-vs-sweep comparisons")
    Term.(
      const run $ results_arg $ compare_flag $ out_arg $ dat_arg $ events_arg
      $ title_arg)

(* --- worker: the pool's worker process --- *)

let worker_cmd =
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Commit measure and fuzz results to the result store under \
             $(docv).")
  in
  let run store =
    let store = Option.map Campaign.Store.open_ store in
    Campaign.Shard.serve
      ~handler:(fun req -> Some (Campaign.Runner.handle ?store req))
      ()
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Worker process (spawned by $(b,fuzz -j) and sharded sweeps): \
          serve framed $(b,measure) and $(b,fuzz) ops on stdin/stdout.  \
          With $(b,--store), measure and fuzz results are committed \
          before the reply, so a SIGKILLed campaign loses at most its \
          in-flight tasks")
    Term.(const run $ store)

(* --- store: campaign result-store inspection and GC --- *)

let store_cmd =
  let action =
    Arg.(
      value
      & pos 0 (Arg.enum [ ("stats", `Stats); ("gc", `Gc) ]) `Stats
      & info [] ~docv:"ACTION" ~doc:"$(b,stats) (the default) or $(b,gc).")
  in
  let dir =
    Arg.(
      value
      & opt string Campaign.Store.default_dir
      & info [ "store" ] ~docv:"DIR" ~doc:"Result store directory.")
  in
  let max_entries =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-entries" ] ~docv:"N"
          ~doc:
            "With $(b,gc): evict the oldest committed entries beyond \
             $(docv) (in addition to the staged-file and journal \
             cleanup gc always performs).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Machine-readable $(b,stats) output.")
  in
  let run action dir max_entries json =
    if not (Sys.file_exists dir) then begin
      Printf.eprintf "jumprepc: store: no store at %s\n" dir;
      exit 2
    end;
    let st = Campaign.Store.open_ ~create:false dir in
    match action with
    | `Stats ->
      let entries, bytes = Campaign.Store.disk_usage st in
      let pending = Campaign.Store.pending st in
      if json then
        print_json
          (Json.Obj
             [
               ("dir", Json.Str dir);
               ("entries", Json.Int entries);
               ("payload_bytes", Json.Int bytes);
               ("pending", Json.Arr (List.map (fun k -> Json.Str k) pending));
             ])
      else begin
        Printf.printf
          "store %s: %d entries, %d payload bytes, %d pending lease%s\n" dir
          entries bytes (List.length pending)
          (if List.length pending = 1 then "" else "s");
        List.iter (fun k -> Printf.printf "  pending: %s\n" k) pending
      end
    | `Gc ->
      let evicted, tmp_removed = Campaign.Store.gc ?max_entries st in
      Printf.printf "store %s: evicted %d entr%s, removed %d staged file%s\n"
        dir evicted
        (if evicted = 1 then "y" else "ies")
        tmp_removed
        (if tmp_removed = 1 then "" else "s")
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:
         "Inspect or garbage-collect a campaign result store: entry and \
          pending-lease counts, staged-file cleanup, journal compaction, \
          and oldest-first eviction down to $(b,--max-entries)")
    Term.(const run $ action $ dir $ max_entries $ json)

let list_cmd =
  let run () =
    List.iter
      (fun (b : Programs.Suite.benchmark) ->
        Printf.printf "%-12s %-10s %s\n" b.name b.clazz b.description)
      Programs.Suite.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the bundled benchmark programs")
    Term.(const run $ const ())

let main =
  let doc =
    "an optimizing compiler with generalized code replication (Mueller & \
     Whalley, PLDI 1992)"
  in
  Cmd.group
    (Cmd.info "jumprepc" ~version:"1.0.0" ~doc)
    [
      compile_cmd;
      run_cmd;
      measure_cmd;
      bench_cmd;
      certify_cmd;
      explain_cmd;
      report_cmd;
      fuzz_cmd;
      worker_cmd;
      store_cmd;
      list_cmd;
    ]

(* [~catch:false] plus our own backstop: unexpected exceptions still exit
   cleanly with a one-line typed diagnostic instead of a raw backtrace. *)
let () =
  match Cmd.eval ~catch:false main with
  | code -> exit code
  | exception Sys_error msg ->
    (* On EPIPE (e.g. `jumprepc report ... | head`) stdout still holds
       unflushable bytes; point fd 1 at /dev/null so the at_exit flush
       cannot raise a second, unhandled Sys_error over the diagnostic. *)
    (try
       let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
       Unix.dup2 null Unix.stdout;
       Unix.close null
     with _ -> ());
    fail_diag (Diag.make Diag.Io_error ~func:"" ~pass:"" msg)
  | exception Telemetry.Diag.Error d -> fail_diag d
  | exception Telemetry.Budget.Exhausted r ->
    fail_diag ~code:124
      (Diag.make Diag.Budget_exhausted ~func:"" ~pass:""
         (Printf.sprintf "%s budget exhausted" (Telemetry.Budget.reason_name r)))
  | exception e ->
    fail_diag ~code:125
      (Diag.make Diag.Internal ~func:"" ~pass:"" (Printexc.to_string e))
