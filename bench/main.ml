(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index) and runs Bechamel
   micro-benchmarks of the compiler itself.

   Usage:
     bench/main.exe                 print all tables and figures
     bench/main.exe -t 4 -t 6       only Tables 4 and 6
     bench/main.exe --list          list available table ids
     bench/main.exe --bechamel      also run pass micro-benchmarks
     bench/main.exe --json          write BENCH_results.json (full sweep)
     bench/main.exe --json --profile --trace-out trace.json
                                    profiled sweep + Perfetto trace

   Tables 4-6 and the section 5.2 statistics are Report's markdown
   sections, the same text `jumprepc report BENCH_results.json` prints
   for them, over the suite measured in-process.

   Any output mismatch discovered while measuring makes the driver exit
   nonzero (see Harness.Measure.mismatches).                              *)

(* The rows `--json` writes, in its order, measured once per process:
   Measure.run is memoized, so the ablations reuse the SIMPLE runs. *)
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
       Report.parse_results
         (Printf.sprintf {|{"results":[%s]}|} (String.concat "," rows))
     with
     | Ok doc -> doc
     | Error e -> failwith ("bench: measured rows do not parse: " ^ e))

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

(* --- Bechamel micro-benchmarks of the compiler and simulator --- *)

(* Record one instruction-fetch trace so the cache-simulation micro
   replays the identical stream, isolated from the engine. *)
let record_trace asm prog =
  let addrs = ref (Array.make 4096 0) in
  let sizes = ref (Array.make 4096 0) in
  let len = ref 0 in
  let push addr size =
    if !len = Array.length !addrs then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      addrs := grow !addrs;
      sizes := grow !sizes
    end;
    !addrs.(!len) <- addr;
    !sizes.(!len) <- size;
    incr len
  in
  ignore
    (Sim.Engine.run ~on_fetch:(fun ~addr ~size -> push addr size) asm prog);
  (Array.sub !addrs 0 !len, Array.sub !sizes 0 !len)

(* The largest CFG among a handful of fuzz-generated programs — input
   for the shortest-path micro.  Compiled at LOOPS so the jumps pass
   has not already eaten the unconditional jumps. *)
let gen_cfg () =
  let best = ref None in
  for seed = 0 to 14 do
    let p = Harness.Gen.generate (Random.State.make [| seed |]) in
    match
      Opt.Driver.compile
        { Opt.Driver.default_options with level = Opt.Driver.Loops }
        Ir.Machine.risc (Harness.Gen.to_c p)
    with
    | exception _ -> ()
    | prog ->
      List.iter
        (fun f ->
          let g = Flow.Cfg.make f in
          let n = Flow.Cfg.num_blocks g in
          match !best with
          | Some (_, _, n') when n' >= n -> ()
          | _ -> best := Some (f, g, n))
        prog.Flow.Prog.funcs
  done;
  let f, g, _ = Option.get !best in
  (f, g)

let bechamel_tests () =
  let open Bechamel in
  let quicksort = Option.get (Programs.Suite.find "quicksort") in
  let sieve = Option.get (Programs.Suite.find "sieve") in
  let parsed = Frontend.Parser.parse_program quicksort.source in
  let compiled = Frontend.Codegen.compile_program parsed in
  let jumps_input =
    Opt.Legalize.run Ir.Machine.risc
      (Option.get (Flow.Prog.find_func compiled "main"))
  in
  let prog_simple =
    Opt.Driver.optimize Opt.Driver.default_options Ir.Machine.risc compiled
  in
  let asm_simple = Sim.Asm.assemble Ir.Machine.risc prog_simple in
  let trace_addrs, trace_sizes = record_trace asm_simple prog_simple in
  let trace_len = Array.length trace_addrs in
  let bank = Icache.Bank.create Icache.paper_configs in
  let sp_func, sp_cfg = gen_cfg () in
  let sp_blocks = Flow.Cfg.num_blocks sp_cfg in
  (* The query mix of the JUMPS pass: a handful of jump-target sources,
     each asked for a few destinations. *)
  let sp_queries sp_path =
    let src = ref 0 in
    while !src < sp_blocks do
      ignore (sp_path ~src:!src ~dst:0);
      if !src + 1 < sp_blocks then ignore (sp_path ~src:!src ~dst:(!src + 1));
      src := !src + 8
    done
  in
  (* The largest linearized CISC function of the JUMPS build — input for
     the branch-displacement solver micro. *)
  let disp_code, disp_labels =
    let prog =
      Opt.Driver.compile
        { Opt.Driver.default_options with level = Opt.Driver.Jumps }
        Ir.Machine.cisc quicksort.source
    in
    List.fold_left
      (fun (bc, bl) f ->
        let c, l = Sim.Asm.linearize f in
        if Array.length c > Array.length bc then (c, l) else (bc, bl))
      ([||], Ir.Label.Map.empty)
      prog.Flow.Prog.funcs
  in
  let t name f = Test.make ~name (Staged.stage f) in
  [
    t "parse/quicksort" (fun () ->
        ignore (Frontend.Parser.parse_program quicksort.source));
    t "codegen/quicksort" (fun () ->
        ignore (Frontend.Codegen.compile_program parsed));
    t "jumps-pass/quicksort" (fun () ->
        ignore
          (Replication.Jumps.run Replication.Jumps.default_config jumps_input));
    t "pipeline-simple/quicksort" (fun () ->
        ignore
          (Opt.Driver.optimize Opt.Driver.default_options Ir.Machine.risc
             compiled));
    t "pipeline-jumps/quicksort" (fun () ->
        ignore
          (Opt.Driver.optimize
             { Opt.Driver.default_options with level = Opt.Driver.Jumps }
             Ir.Machine.risc compiled));
    t "decode/quicksort" (fun () ->
        ignore (Sim.Interp.Decoded.decode asm_simple prog_simple));
    t "engine-threaded/quicksort" (fun () ->
        ignore (Sim.Engine.run asm_simple prog_simple));
    t "interp-reference/quicksort" (fun () ->
        ignore (Sim.Interp.run_reference asm_simple prog_simple));
    t "engine-compile/quicksort" (fun () ->
        ignore
          (Sim.Engine.compile (Sim.Interp.Decoded.decode asm_simple prog_simple)));
    t "cachesim-bank/quicksort-trace" (fun () ->
        Icache.Bank.reset bank;
        for i = 0 to trace_len - 1 do
          Icache.Bank.access bank ~addr:trace_addrs.(i) ~size:trace_sizes.(i)
        done);
    t
      (Printf.sprintf "shortest-path-lazy/gen-%db" sp_blocks)
      (fun () ->
        let sp = Replication.Shortest_path.create sp_func sp_cfg in
        sp_queries (Replication.Shortest_path.path sp));
    t "sweep-j1/suite-simple-risc" (fun () ->
        Harness.Measure.reset_cache ();
        ignore (Harness.Measure.run_suite Opt.Driver.Simple Ir.Machine.risc));
    t "pipeline-jumps/sieve-cisc" (fun () ->
        ignore
          (Opt.Driver.compile
             { Opt.Driver.default_options with level = Opt.Driver.Jumps }
             Ir.Machine.cisc sieve.source));
    t
      (Printf.sprintf "displace-encode/quicksort-%di" (Array.length disp_code))
      (fun () -> ignore (Ir.Encode.solve Ir.Machine.cisc disp_code disp_labels));
  ]

let run_bechamel ?(quota = 0.5) () =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second quota) () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  print_endline "Bechamel micro-benchmarks (ns per run, OLS estimate):";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let result = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock result in
          let value =
            match Analyze.OLS.estimates est with
            | Some (v :: _) -> v
            | _ -> nan
          in
          Printf.printf "  %-32s %14.0f ns  (%.3f ms)\n%!" (Test.Elt.name elt)
            value (value /. 1_000_000.0))
        (Test.elements test))
    (bechamel_tests ())

(* --- machine-readable results: the full suite sweep as JSON --- *)

(* Every (benchmark, level, machine) measurement plus the telemetry counter
   totals of the sweep, in one JSON document, computed by
   Campaign.Runner.sweep — in-process at one worker, on [workers] worker
   processes otherwise, against the content-addressed store under
   [store] when given (cached rows are spliced back verbatim and their
   counters replayed).  The document is byte-identical at any worker
   count, with or without a store or a kill-and-resume in between.
   Returns whether any measurement failed. *)
let write_json ~workers ?(store = "") ~resume ?deadline ?retries ?chaos ?engine
    ?(profile = false) ?(profile_out = "") ?(profile_top = 15) ?(trace_out = "")
    path =
  let levels = [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ] in
  let machines = [ Ir.Machine.risc; Ir.Machine.cisc ] in
  let log = Telemetry.Log.make Telemetry.Log.Memory in
  (* The observability instruments ride beside the sweep: the profiler
     and trace never touch the measurement or counter paths, so the
     results document stays byte-identical with them on or off. *)
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
  let engine = Option.value ~default:Sim.Engine.Threaded engine in
  let rows, s =
    Campaign.Runner.sweep
      ?store:(if store = "" then None else Some (Campaign.Store.open_ store))
      ~resume
      ~workers:(if workers > 1 then workers else 0)
      ~worker_argv ?deadline ?retries ?chaos ~engine ~log ~profiler ?trace tasks
  in
  List.iter
    (fun d ->
      Printf.eprintf "jumprepc: warning: %s\n" (Telemetry.Diag.to_string d))
    s.Campaign.Runner.diags;
  let counters =
    Telemetry.Metrics.counters (Telemetry.Log.metrics log)
    |> List.map (fun (name, value) ->
           Printf.sprintf "%s:%d" (Telemetry.Log.json_string name) value)
  in
  (* The failures array appears only when non-empty, so a clean sweep's
     document stays byte-identical to the committed baseline. *)
  let failures =
    match s.Campaign.Runner.failures with
    | [] -> ""
    | fs ->
      Printf.sprintf ",\"failures\":[%s]"
        (String.concat "," (List.map Campaign.Runner.failure_to_json fs))
  in
  let oc = open_out path in
  (* The engine label is provenance, not a measurement: every engine
     must produce the same results array, so the label is the only field
     that could differ between sweeps of different engines. *)
  Printf.fprintf oc "{\"engine\":\"%s\",\"results\":[%s],\"counters\":{%s}%s}\n"
    (Sim.Engine.kind_name engine)
    (String.concat "," (List.map (fun r -> r.Campaign.Runner.r_row) rows))
    (String.concat "," counters)
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
    Telemetry.Profiler.pp_table ~top:profile_top Format.std_formatter profiler;
    Format.pp_print_flush Format.std_formatter ();
    if profile_out <> "" then begin
      (* Supervisor tallies and this process's decode/compile cache
         tallies live beside the sweep's registry, never in it: the
         results document must not depend on scheduling. *)
      let pool_metrics = Telemetry.Metrics.create () in
      Harness.Pool.stats_to_metrics p pool_metrics;
      Sim.Interp.publish_cache_metrics pool_metrics;
      Sim.Engine.publish_cache_metrics pool_metrics;
      let doc =
        Telemetry.Json.Obj
          [
            ("profile", Telemetry.Profiler.to_json profiler);
            ("metrics", Telemetry.Metrics.to_json (Telemetry.Log.metrics log));
            ("pool", Telemetry.Metrics.to_json pool_metrics);
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
  let bech = ref false in
  let bech_quota = ref 0.5 in
  let json = ref false in
  let jobs = ref (Harness.Pool.default_jobs ()) in
  let set_jobs = Arg.Int (fun n -> jobs := Harness.Pool.clamp_jobs ~what:"-j" n) in
  let chaos = ref None in
  let task_deadline = ref None in
  let retries = ref None in
  let profile = ref false in
  let profile_out = ref "" in
  let profile_top = ref 15 in
  let trace_out = ref "" in
  let engine = ref None in
  let store = ref "" in
  let resume = ref false in
  let spec =
    [
      ( "-t",
        Arg.String (fun s -> tables := s :: !tables),
        "ID  print only this table/figure (repeatable)" );
      ( "--tables",
        Arg.String (fun s -> tables := s :: !tables),
        "ID  same as -t" );
      ("--list", Arg.Set list_only, " list available ids");
      ("--bechamel", Arg.Set bech, " run pass micro-benchmarks");
      ( "--bechamel-quota",
        Arg.Set_float bech_quota,
        "SECS  per-benchmark time budget (default 0.5)" );
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
         (function x pass), fuel/interp/cache time per run" );
      ( "--profile-out",
        Arg.Set_string profile_out,
        "PATH  also write the profile (plus metric registries) as JSON \
         (implies --profile)" );
      ( "--profile-top",
        Arg.Set_int profile_top,
        "N  rows in the printed profile tables (default 15)" );
      ( "--trace-out",
        Arg.Set_string trace_out,
        "PATH  write a Chrome/Perfetto trace of the --json sweep (worker \
         spans, supervisor and chaos events)" );
      ( "--engine",
        Arg.String
          (fun s ->
            match Sim.Engine.kind_of_string s with
            | Some k -> engine := Some k
            | None ->
              Printf.eprintf "bad --engine (threaded|reference)\n";
              exit 2),
        "ENGINE  execution engine for the --json sweep: threaded (default) \
         or reference — observationally equivalent, only speed differs" );
      ( "--store",
        Arg.Set_string store,
        "DIR  content-addressed result store for the --json sweep (campaign \
         mode: every result is committed as it completes)" );
      ( "--resume",
        Arg.Set resume,
        " reuse committed store entries and compute only the delta \
         (requires --store)" );
      ( "--workers",
        Arg.Int (fun n -> jobs := Harness.Pool.clamp_jobs ~what:"--workers" n),
        "N  same as -j" );
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
          ?retries:!retries ?chaos:!chaos ?engine:!engine ~profile:!profile
          ~profile_out:!profile_out ~profile_top:!profile_top
          ~trace_out:!trace_out "BENCH_results.json"
    end;
    if !bech then run_bechamel ~quota:!bech_quota ();
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
