(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index).  Timing the compiler
   itself is perfbench's job (perfbench/README.md).

   Usage:
     bench/main.exe                 print all tables and figures
     bench/main.exe -t 4 -t 6       only Tables 4 and 6
     bench/main.exe --list          list available table ids
     bench/main.exe --json          write BENCH_results.json (full sweep)
     bench/main.exe --json --profile --trace-out trace.json
                                    profiled sweep + Perfetto trace

   Tables 4-6 and the section 5.2 statistics are Report's markdown
   sections, the same text `jumprepc report BENCH_results.json` prints
   for them, over the suite measured in-process.

   Any output mismatch discovered while measuring makes the driver exit
   nonzero (see Harness.Measure.mismatches).                              *)

(* The rows `--json` writes, in its order, measured once per process:
   Measure.run is memoized, so the ablations reuse the SIMPLE runs.
   Report reads them as values, exactly as it reads the written file. *)
let paper_doc =
  lazy
    (let rows =
       List.concat_map
         (fun machine ->
           List.concat_map
             (fun level ->
               List.map Harness.Measure.to_json
                 (Harness.Measure.run_suite level machine))
             [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ])
         [ Ir.Machine.risc; Ir.Machine.cisc ]
     in
     match
       Report.doc_of_json
         (Telemetry.Json.Obj [ ("results", Telemetry.Json.Arr rows) ])
     with
     | Ok doc -> doc
     | Error e -> failwith ("bench: measured rows do not read back: " ^ e))

let section render ppf =
  Format.pp_print_string ppf (render (Lazy.force paper_doc))

let available : (string * string * (Format.formatter -> unit)) list =
  [
    ("1", "Table 1: loop with exit condition in the middle", Harness.Tables.table1);
    ("2", "Table 2: if-then-else", Harness.Tables.table2);
    ("3", "Table 3: test set", Harness.Tables.table3);
    ("4", "Table 4: percent unconditional jumps", section Report.table4);
    ("5", "Table 5: static and dynamic instructions", section Report.table5);
    ("6", "Table 6: cache miss ratio and fetch cost", section Report.table6);
    ("bb", "Section 5.2: block statistics", section Report.section_5_2);
    ("fig", "Figures 1 and 2: loop interference cases", Harness.Tables.figures);
    ("cap", "Ablation: bounded replication (paper section 6)", Harness.Tables.ablation_cap);
    ("heur", "Ablation: step-2 heuristic", Harness.Tables.ablation_heuristic);
    ("assoc", "Ablation: cache associativity (extension)", Harness.Tables.ablation_assoc);
    ("passes", "Ablation: cleanup passes (paper section 3.3)", Harness.Tables.ablation_passes);
  ]

(* --- machine-readable results: the full suite sweep as JSON --- *)

(* Every (benchmark, level, machine) measurement plus the counter totals
   of the sweep (Report.counters of its rows), in one JSON document,
   computed by Campaign.Runner.sweep — in-process at one worker, on
   [workers] worker processes otherwise, against the content-addressed
   store under [store] when given (cached rows are spliced back
   verbatim).  The document is byte-identical at any worker
   count, with or without a store or a kill-and-resume in between.
   Returns whether any measurement failed. *)
let write_json ~workers ?(store = "") ~resume ?deadline ?retries ?chaos
    ?(profile = false) ?(profile_out = "") ?(trace_out = "") path =
  let levels = [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ] in
  let machines = [ Ir.Machine.risc; Ir.Machine.cisc ] in
  (* The observability instruments ride beside the sweep: the profiler
     and trace never touch the measurement path, so the results
     document stays byte-identical with them on or off. *)
  let profiling = profile || profile_out <> "" in
  let profiler =
    if profiling then Telemetry.Profiler.create () else Telemetry.Profiler.null
  in
  let trace =
    if trace_out = "" then None else Some (Telemetry.Trace.create ())
  in
  Option.iter (fun t -> Telemetry.Trace.process_name t "jumprepc bench") trace;
  let tasks =
    List.concat_map
      (fun machine ->
        List.concat_map
          (fun level ->
            List.map (fun b -> (b, level, machine)) Programs.Suite.all)
          levels)
      machines
  in
  let worker_argv =
    Array.of_list
      (Sys.executable_name :: "--worker"
      :: (if store = "" then [] else [ "--store"; store ]))
  in
  let rows, s =
    Campaign.Runner.sweep
      ?store:(if store = "" then None else Some (Campaign.Store.open_ store))
      ~resume
      ~workers:(if workers > 1 then workers else 0)
      ~worker_argv ?deadline ?retries ?chaos ~profiler ?trace tasks
  in
  List.iter
    (fun d ->
      Printf.eprintf "jumprepc: warning: %s\n" (Telemetry.Diag.to_string d))
    s.Campaign.Runner.diags;
  let json = Telemetry.Json.to_string in
  let ints = List.map (fun (name, n) -> (name, Telemetry.Json.Int n)) in
  let counters =
    let results =
      List.map
        (fun r -> Result.get_ok (Telemetry.Json.parse r.Campaign.Runner.r_row))
        rows
    in
    match
      Report.doc_of_json
        (Telemetry.Json.Obj [ ("results", Telemetry.Json.Arr results) ])
    with
    | Ok doc -> ints (Report.counters doc.rows)
    | Error e -> failwith ("bench: swept rows do not read back: " ^ e)
  in
  (* The failures array appears only when non-empty, so a clean sweep's
     document stays byte-identical to the committed baseline. *)
  let failures =
    match s.Campaign.Runner.failures with
    | [] -> ""
    | fs ->
      ",\"failures\":"
      ^ json
          (Telemetry.Json.Arr (List.map Campaign.Runner.failure_to_json fs))
  in
  let oc = open_out path in
  (* The rows are spliced as the strings the sweep returns: each was
     rendered once, where it was measured, and a cached row is replayed
     from the store as those bytes — which is what keeps a resumed
     document byte-identical to a cold one.  The engine label is
     provenance, not a measurement. *)
  Printf.fprintf oc "{\"engine\":%s,\"results\":[%s],\"counters\":%s%s}\n"
    (json (Telemetry.Json.Str (Sim.Engine.kind_name Sim.Engine.Threaded)))
    (String.concat "," (List.map (fun r -> r.Campaign.Runner.r_row) rows))
    (json (Telemetry.Json.Obj counters))
    failures;
  close_out oc;
  Printf.printf "wrote %s (%d measurements, %d tasks failed)\n" path
    (List.length rows)
    (List.length s.Campaign.Runner.failures);
  let p = s.Campaign.Runner.pool in
  if store <> "" then
    Printf.printf
      "campaign: %d tasks, %d cached, %d computed, %d corrupt, %d worker \
       kills, %d respawns\n"
      s.Campaign.Runner.total s.Campaign.Runner.hits s.Campaign.Runner.computed
      s.Campaign.Runner.corrupt p.Harness.Pool.injected_crashes
      p.Harness.Pool.respawned;
  if profiling then begin
    Telemetry.Profiler.pp_table Format.std_formatter profiler;
    Format.pp_print_flush Format.std_formatter ();
    if profile_out <> "" then begin
      (* Supervisor tallies, name-sorted, then the decode/compile cache
         tallies of this process.  Those count only tasks that ran here,
         so they are emitted only at -j 1: at -j > 1 every task runs in
         a worker process, whose caches are never collected, and this
         process's would read 0.  None of it enters the results
         document, which must not depend on scheduling. *)
      let cache name (hits, misses) =
        [ (name ^ ".hits", hits); (name ^ ".misses", misses) ]
      in
      let pool =
        [
          ("pool.abandoned", p.Harness.Pool.abandoned);
          ("pool.injected_allocs", p.injected_allocs);
          ("pool.injected_crashes", p.injected_crashes);
          ("pool.injected_hangs", p.injected_hangs);
          ("pool.respawned", p.respawned);
          ("pool.retried", p.retried);
        ]
        @
        if workers > 1 then []
        else
          cache "sim.decode_cache" (Sim.Interp.decode_cache_counters ())
          @ cache "sim.engine_cache" (Sim.Engine.compile_cache_counters ())
      in
      let doc =
        Telemetry.Json.Obj
          [
            ("profile", Telemetry.Profiler.to_json profiler);
            ("pool", Telemetry.Json.Obj (ints pool));
          ]
      in
      let oc = open_out profile_out in
      output_string oc (Telemetry.Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" profile_out
    end
  end;
  (match trace with
  | None -> ()
  | Some t ->
    let oc = open_out trace_out in
    Telemetry.Trace.write t oc;
    close_out oc;
    Printf.printf "wrote %s (%d trace events)\n" trace_out
      (Telemetry.Trace.events t));
  if chaos <> None then
    Printf.printf
      "chaos: %d faults injected (%d crashes, %d hangs, %d allocs), %d \
       retries, %d respawns, %d abandoned\n"
      (Harness.Pool.injected p) p.Harness.Pool.injected_crashes
      p.Harness.Pool.injected_hangs p.Harness.Pool.injected_allocs
      p.Harness.Pool.retried p.Harness.Pool.respawned p.Harness.Pool.abandoned;
  (* Rows carry their own verdicts; timeouts and mismatches are distinct
     and either fails the sweep. *)
  let failed = ref false in
  List.iter
    (fun (r : Campaign.Runner.row) ->
      if r.r_timed_out then begin
        failed := true;
        Printf.eprintf "TIMEOUT: %s at %s on %s\n" r.r_program r.r_level
          r.r_machine
      end
      else if not r.r_output_ok then begin
        failed := true;
        Printf.eprintf "MISMATCH: %s at %s on %s\n" r.r_program r.r_level
          r.r_machine
      end)
    rows;
  (* Tasks that produced no measurement at all: expected collateral
     under chaos (reported, exit 0), a hard failure without it. *)
  (match s.Campaign.Runner.failures with
  | [] -> ()
  | fs ->
    if chaos = None then failed := true;
    List.iter
      (fun (f : Campaign.Runner.failure) ->
        Printf.eprintf "TASK %s: %s at %s on %s (%d attempts: %s)\n"
          (String.uppercase_ascii f.f_kind)
          f.f_program
          (Opt.Driver.level_name f.f_level)
          f.f_machine f.f_attempts f.f_detail)
      fs);
  !failed

(* Worker-process mode: serve measure and fuzz requests over stdin/stdout,
   committing to the store when [--store DIR] is given.  Handled before
   [Arg.parse] so the protocol loop owns stdout from the first byte. *)
let worker_main () =
  let store = ref None in
  Array.iteri
    (fun i a ->
      if a = "--store" && i + 1 < Array.length Sys.argv then
        store := Some (Campaign.Store.open_ Sys.argv.(i + 1)))
    Sys.argv;
  Campaign.Shard.serve
    ~handler:(fun req -> Some (Campaign.Runner.handle ?store:!store req))
    ()

let () =
  if Array.exists (( = ) "--worker") Sys.argv then begin
    worker_main ();
    exit 0
  end;
  (* The sweep is allocation-heavy (functional IR rewriting promotes
     hundreds of megawords through the default 256K-word minor heap); a
     larger nursery and a lazier major collector trade a few MB of RSS
     for a large cut in GC time.  Purely a scheduling change — results
     are GC-invariant. *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20; space_overhead = 200 };
  let tables = ref [] in
  let list_only = ref false in
  let json = ref false in
  let jobs = ref (Harness.Pool.default_jobs ()) in
  let set_jobs = Arg.Int (fun n -> jobs := Harness.Pool.clamp_jobs ~what:"-j" n) in
  let chaos = ref None in
  let task_deadline = ref None in
  let retries = ref None in
  let profile = ref false in
  let profile_out = ref "" in
  let trace_out = ref "" in
  let store = ref "" in
  let resume = ref false in
  let spec =
    [
      ( "-t",
        Arg.String (fun s -> tables := s :: !tables),
        "ID  print only this table/figure (repeatable)" );
      ("--list", Arg.Set list_only, " list available ids");
      ("--json", Arg.Set json, " write BENCH_results.json (full suite sweep)");
      ( "-j",
        set_jobs,
        "N  worker processes for the --json sweep (default $JUMPREP_JOBS or \
         1; 1 runs in-process)" );
      ("--jobs", set_jobs, "N  same as -j");
      ( "--chaos",
        Arg.String
          (fun s ->
            match Harness.Pool.chaos_of_string s with
            | Ok c -> chaos := Some c
            | Error e ->
              Printf.eprintf "bad --chaos spec: %s\n" e;
              exit 2),
        "SPEC  inject deterministic worker faults into the --json sweep \
         (crash|hang|alloc[:RATE],seed:N)" );
      ( "--task-deadline",
        Arg.Float (fun s -> task_deadline := Some s),
        "SECS  per-task wall-clock deadline for the --json sweep (default \
         1.0 when --chaos enables hangs, else none)" );
      ( "--retries",
        Arg.Int (fun n -> retries := Some n),
        "N  retry failed tasks up to N times (default 2)" );
      ( "--profile",
        Arg.Set profile,
        " profile the --json sweep: wall time and GC allocation per \
         (function x pass)" );
      ( "--profile-out",
        Arg.Set_string profile_out,
        "PATH  also write the profile (plus metric registries) as JSON \
         (implies --profile)" );
      ( "--trace-out",
        Arg.Set_string trace_out,
        "PATH  write a Chrome/Perfetto trace of the --json sweep (worker \
         spans, supervisor and chaos events)" );
      ( "--store",
        Arg.Set_string store,
        "DIR  content-addressed result store for the --json sweep (campaign \
         mode: every result is committed as it completes)" );
      ( "--resume",
        Arg.Set resume,
        " reuse committed store entries and compute only the delta \
         (requires --store)" );
      ( "--worker",
        Arg.Unit (fun () -> ()),
        " internal: serve measure requests over stdin/stdout (handled \
         before argument parsing)" );
    ]
  in
  Arg.parse spec
    (fun s -> tables := s :: !tables)
    "bench/main.exe [-t ID]... — regenerate the paper's tables";
  if !list_only then
    List.iter (fun (id, desc, _) -> Printf.printf "%-5s %s\n" id desc) available
  else begin
    let selected =
      if !tables = [] && not !json then available
      else
        List.filter_map
          (fun id ->
            match List.find_opt (fun (i, _, _) -> i = id) available with
            | Some entry -> Some entry
            | None ->
              Printf.eprintf "unknown table id %s (try --list)\n" id;
              None)
          (List.rev !tables)
    in
    let ppf = Format.std_formatter in
    List.iter
      (fun (_, _, print) ->
        print ppf;
        Format.pp_print_flush ppf ())
      selected;
    let sweep_failed = ref false in
    if !json then begin
      (* Injected hangs need a deadline to be killed against. *)
      let deadline =
        match !task_deadline, !chaos with
        | (Some _ as d), _ -> d
        | None, Some c when c.Harness.Pool.hang > 0. -> Some 1.0
        | None, _ -> None
      in
      if !resume && !store = "" then begin
        Printf.eprintf "--resume needs --store DIR\n";
        exit 2
      end;
      sweep_failed :=
        write_json ~workers:!jobs ~store:!store ~resume:!resume ?deadline
          ?retries:!retries ?chaos:!chaos ~profile:!profile
          ~profile_out:!profile_out ~trace_out:!trace_out "BENCH_results.json"
    end;
    (* The tables' verdicts: timeouts and mismatches are distinct, and
       either fails the run. *)
    let failed = ref false in
    (match Harness.Measure.timeouts () with
    | [] -> ()
    | hung ->
      failed := true;
      List.iter
        (fun (prog, level, machine) ->
          Printf.eprintf "TIMEOUT: %s at %s on %s\n" prog
            (Opt.Driver.level_name level)
            machine)
        hung);
    (match Harness.Measure.mismatches () with
    | [] -> ()
    | bad ->
      failed := true;
      List.iter
        (fun (prog, level, machine) ->
          Printf.eprintf "MISMATCH: %s at %s on %s\n" prog
            (Opt.Driver.level_name level)
            machine)
        bad);
    if !failed || !sweep_failed then exit 1
  end
