(* The repository benchmark (see perfbench/README.md).

   Usage, normally through perfbench/run.py, which builds this first:

     bench.exe --workload paper_sweep|gen_large|campaign --seed N
               --seconds S --trace 0|1 [--tiny] [--tamper-golden]

   --trace 0 repeats cold, untraced passes over the workload for S seconds
   and prints the end-to-end metrics; --trace 1 alternates untraced passes
   with traced ones, in which every task is taken apart into spans around
   the calls into each library layer, and prints the per-layer metrics.
   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   The benchmark only calls the libraries' public functions; it changes
   no library code. *)

module Measure = Harness.Measure
module Json = Telemetry.Json
module Trace = Telemetry.Trace
module Store = Campaign.Store

(* The box the benchmark is sized for: busy shares are taken against
   this many cores, and the campaign shards over this many workers. *)
let cores = 2
let work_root = "perfbench/_work"
let baseline_file = "BENCH_baseline.json"
let now = Unix.gettimeofday

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 1)
    fmt

(* --- statistics ------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let sum_f xs = List.fold_left ( +. ) 0. xs

(* --- host speed ------------------------------------------------------- *)

(* The speed of a shared host drifts: a fixed loop's time wanders by up
   to half over minutes, and a pass's wall time with it.  Before every
   pass the benchmark therefore times this fixed kernel — Map inserts and
   list building, allocation-heavy like the compiler, and independent of
   the repository's code — and reports times scaled to the kernel's
   nominal duration: [measured * nominal / kernel].  Over 160
   back-to-back passes this cut the spread of 8-pass medians from 13% to
   3% (IQR over median).  Raw times are printed beside the result. *)
module Int_map = Map.Make (Int)

let kernel_nominal_s = 0.06

let kernel () =
  let st = Random.State.make [| 42 |] in
  let acc = ref 0 in
  for _ = 1 to 6 do
    let m = ref Int_map.empty in
    for i = 1 to 20_000 do
      m := Int_map.add (Random.State.int st 1_000_000) i !m
    done;
    acc := !acc + Int_map.fold (fun k v a -> a + (k lxor v)) !m 0;
    let l = List.init 50_000 (fun i -> i * 7) in
    acc := !acc + List.fold_left ( + ) 0 (List.rev_map (fun x -> x land 255) l)
  done;
  ignore (Sys.opaque_identity !acc)

(* The factor that takes a time measured now to nominal host speed. *)
let host_scale () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  kernel_nominal_s /. (Unix.gettimeofday () -. t0)

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- files and processes --------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    mkdir_p dst;
    Array.iter
      (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  end
  else write_file dst (read_file src)

let find_in_path prog =
  let dirs =
    String.split_on_char ':' (Option.value ~default:"" (Sys.getenv_opt "PATH"))
  in
  List.find_map
    (fun d ->
      let p = Filename.concat d prog in
      if d <> "" && Sys.file_exists p then Some p else None)
    dirs

(* Run [prog args] to completion with stdin from /dev/null; returns its
   exit status and standard output. *)
let run_capture ?(env = Unix.environment ()) prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process_env prog
      (Array.of_list (prog :: args))
      env null wr Unix.stderr
  in
  Unix.close wr;
  Unix.close null;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, out)

(* --- references -------------------------------------------------------- *)

(* What a task's measurement must reproduce: the integer counts of a
   BENCH row (fetch cost per cache included) and the miss ratios as the
   row prints them. *)
type reference = { counts : int array; ratios : string array }

let count_fields =
  [
    "static_instrs";
    "static_ujumps";
    "static_nops";
    "code_bytes";
    "dyn_instrs";
    "dyn_ujumps";
    "dyn_nops";
    "dyn_transfers";
  ]

let ratio_string r = Printf.sprintf "%.6f" r

let reference_of_measure (m : Measure.t) =
  {
    counts =
      Array.of_list
        ([
           m.static_instrs;
           m.static_ujumps;
           m.static_nops;
           m.code_bytes;
           m.dyn_instrs;
           m.dyn_ujumps;
           m.dyn_nops;
           m.dyn_transfers;
         ]
        @ List.map (fun c -> c.Measure.fetch_cost) m.caches);
    ratios =
      Array.of_list
        (List.map (fun c -> ratio_string c.Measure.miss_ratio) m.caches);
  }

(* A BENCH row as JSON (a [BENCH_baseline.json] result, or a campaign
   row), with its output verdict. *)
let reference_of_row j =
  let int name =
    match Option.bind (Json.member name j) Json.get_int with
    | Some v -> v
    | None -> die "baseline row without %s" name
  in
  let caches =
    Option.value ~default:[] (Option.bind (Json.member "caches" j) Json.to_list)
  in
  let cache_int c =
    Option.value ~default:(-1)
      (Option.bind (Json.member "fetch_cost" c) Json.get_int)
  in
  let cache_ratio c =
    match Option.bind (Json.member "miss_ratio" c) Json.get_float with
    | Some r -> ratio_string r
    | None -> "?"
  in
  let ok =
    Option.bind (Json.member "output_ok" j) Json.get_bool = Some true
    && Option.bind (Json.member "timed_out" j) Json.get_bool = Some false
  in
  ( {
      counts =
        Array.of_list (List.map int count_fields @ List.map cache_int caches);
      ratios = Array.of_list (List.map cache_ratio caches);
    },
    ok )

let parse_json what s =
  match Json.parse s with Ok j -> j | Error e -> die "%s: %s" what e

let row_id j =
  let str name =
    Option.value ~default:"" (Option.bind (Json.member name j) Json.get_string)
  in
  (str "program", str "level", str "machine")

let load_baseline () =
  if not (Sys.file_exists baseline_file) then
    die "%s not found: run from the root of the repository" baseline_file;
  let doc = parse_json baseline_file (read_file baseline_file) in
  let rows =
    Option.value ~default:[]
      (Option.bind (Json.member "results" doc) Json.to_list)
  in
  let tbl = Hashtbl.create 128 in
  List.iter (fun j -> Hashtbl.replace tbl (row_id j) (fst (reference_of_row j))) rows;
  tbl

(* The end-to-end code-quality sums of Tables 4-6. *)
type sums = {
  mutable s_dyn_instrs : int;
  mutable s_dyn_ujumps : int;
  mutable s_code_bytes : int;
  mutable s_fetch_cost : int;
}

let no_sums () =
  { s_dyn_instrs = 0; s_dyn_ujumps = 0; s_code_bytes = 0; s_fetch_cost = 0 }

let add_sums s (r : reference) =
  s.s_code_bytes <- s.s_code_bytes + r.counts.(3);
  s.s_dyn_instrs <- s.s_dyn_instrs + r.counts.(4);
  s.s_dyn_ujumps <- s.s_dyn_ujumps + r.counts.(5);
  for i = 8 to Array.length r.counts - 1 do
    s.s_fetch_cost <- s.s_fetch_cost + r.counts.(i)
  done

(* --- tasks ------------------------------------------------------------- *)

type task = {
  bench : Programs.Suite.benchmark;
  level : Opt.Driver.level;
  machine : Ir.Machine.t;
  mutable reference : reference option;
      (** the baseline row; for generated programs, the first pass's
          measurement, which every later pass must reproduce *)
}

let level_name t = Opt.Driver.level_name t.level
let task_id t = (t.bench.Programs.Suite.name, level_name t, t.machine.Ir.Machine.short)

let label t =
  let p, l, m = task_id t in
  Printf.sprintf "%s/%s/%s" p l m

let levels = [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ]
let machines = [ Ir.Machine.risc; Ir.Machine.cisc ]

let matrix programs =
  List.concat_map
    (fun machine ->
      List.concat_map
        (fun level ->
          List.map
            (fun bench -> { bench; level; machine; reference = None })
            programs)
        levels)
    machines

let shuffle seed l =
  let a = Array.of_list l in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let take n l = List.filteri (fun i _ -> i < n) l

let tamper_golden (b : Programs.Suite.benchmark) =
  { b with expected_output = b.expected_output ^ "(tampered)" }

(* The paper's matrix in [bench --json] order, each task anchored to its
   committed baseline row.  Tiny: six programs at SIMPLE on both
   machines. *)
let paper_tasks ~tiny =
  let baseline = load_baseline () in
  let tasks =
    List.map
      (fun t ->
        match Hashtbl.find_opt baseline (task_id t) with
        | Some r -> { t with reference = Some r }
        | None -> die "%s has no row in %s" (label t) baseline_file)
      (matrix (if tiny then take 6 Programs.Suite.all else Programs.Suite.all))
  in
  if tiny then List.filter (fun t -> t.level = Opt.Driver.Simple) tasks
  else tasks

(* --- gen_large inputs -------------------------------------------------- *)

(* Harness.Gen seeds of the large-function corpus.  Generated programs
   differ up to 60x in compile cost, so a set drawn afresh per --seed
   would swing a pass's wall time far more than any useful bound; the
   set is fixed and --seed permutes the program order.
   These are the Gen seeds below 40 whose main has 450-650 RTLs out of
   codegen, without the three costliest (25, 29 and 33). *)
let gen_corpus = [ 0; 1; 3; 7; 13; 31; 35; 37 ]

type gen_program = {
  g_seed : int;
  g_bench : Programs.Suite.benchmark;
  g_rtls : int;
  g_blocks : int;
}

let gcc_flags = [ "-O0"; "-fwrapv"; "-funsigned-char"; "-w" ]

(* Generate each program, compile it with gcc and keep gcc's output as
   the golden the compiled program must print.  A missing or failing gcc
   stops the benchmark: the workload is never silently skipped. *)
let gen_programs ~dir ~tiny =
  let gcc =
    match find_in_path "gcc" with
    | Some p -> p
    | None -> die "gcc not found on PATH: gen_large needs it for its goldens"
  in
  let tmp = Filename.concat dir "tmp" in
  mkdir_p tmp;
  let env =
    Array.append
      [| "TMPDIR=" ^ Filename.concat (Sys.getcwd ()) tmp |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"TMPDIR=" v))
            (Array.to_list (Unix.environment ()))))
  in
  List.map
    (fun g_seed ->
      let source =
        Harness.Gen.to_c (Harness.Gen.generate (Random.State.make [| g_seed |]))
      in
      let base = Filename.concat dir (Printf.sprintf "gen%d" g_seed) in
      write_file (base ^ ".c") ("#include <stdio.h>\n" ^ source);
      (match run_capture ~env gcc (gcc_flags @ [ "-o"; base; base ^ ".c" ]) with
      | Unix.WEXITED 0, _ -> ()
      | _ -> die "gcc failed on Gen seed %d (%s.c)" g_seed base);
      let golden =
        match run_capture base [] with
        | Unix.WEXITED 0, out -> out
        | _ -> die "the gcc build of Gen seed %d did not exit 0" g_seed
      in
      let main =
        Option.get
          (Flow.Prog.find_func (Frontend.Codegen.compile_source source) "main")
      in
      {
        g_seed;
        g_bench =
          {
            Programs.Suite.name = Printf.sprintf "gen%d" g_seed;
            clazz = "Generated";
            description = "Harness.Gen program";
            source;
            input = "";
            expected_output = golden;
          };
        g_rtls = Flow.Func.num_instrs main;
        g_blocks = Flow.Func.num_blocks main;
      })
    (if tiny then take 1 gen_corpus else gen_corpus)

(* --- cold, untraced passes --------------------------------------------- *)

type pass = {
  wall : float;  (** seconds *)
  task_ms : float list;
  scale : float;  (** {!host_scale} just before the pass *)
  attempted : int;
  failed : int;
  sums : sums;
}

(* A measurement passes when its output matched the golden and its counts
   and cache numbers equal the task's reference. *)
let check t ~ok (r : reference) sums =
  add_sums sums r;
  ok
  &&
  match t.reference with
  | Some r0 -> r0 = r
  | None ->
    t.reference <- Some r;
    true

let engine_misses () = snd (Sim.Engine.compile_cache_counters ())

(* One pass as [bench --json -j 1] makes it: every task through
   Harness.Measure.run, from an empty memo, so each task compiles and
   runs afresh — the engine's compile cache must miss once per task. *)
let measure_pass tasks =
  let scale = host_scale () in
  Measure.reset_cache ();
  let misses0 = engine_misses () in
  let sums = no_sums () in
  let failed = ref 0 in
  let t0 = now () in
  let task_ms =
    List.map
      (fun t ->
        let s = now () in
        let ok =
          match Measure.run t.bench t.level t.machine with
          | m ->
            check t
              ~ok:(m.output_ok && not m.timed_out)
              (reference_of_measure m) sums
          | exception e ->
            prerr_endline
              ("perfbench: " ^ label t ^ " raised " ^ Printexc.to_string e);
            false
        in
        if not ok then incr failed;
        (now () -. s) *. 1e3)
      tasks
  in
  let wall = now () -. t0 in
  let misses = engine_misses () - misses0 in
  if !failed = 0 && misses <> List.length tasks then
    die "engine compile cache missed %d times for %d tasks: the pass was not cold"
      misses (List.length tasks);
  { wall; task_ms; scale; attempted = List.length tasks; failed = !failed; sums }

(* --- campaign ---------------------------------------------------------- *)

(* Worker processes append "start end" (Unix seconds) per served frame
   to a file of their own under this directory: the in-process compute
   time of each task, measured outside the library. *)
let busy_times dir =
  if not (Sys.file_exists dir) then []
  else
    Array.to_list (Sys.readdir dir)
    |> List.map (fun f ->
           ( f,
             read_file (Filename.concat dir f)
             |> String.split_on_char '\n'
             |> List.filter_map (fun line ->
                    try Some (Scanf.sscanf line "%f %f" (fun a b -> (a, b)))
                    with Scanf.Scan_failure _ | End_of_file -> None) ))

let worker_main ~store ~busy_log =
  let handler = Campaign.Runner.worker_handler (Store.open_ store) in
  mkdir_p busy_log;
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644
      (Filename.concat busy_log (string_of_int (Unix.getpid ())))
  in
  Campaign.Shard.serve
    ~handler:(fun payload ->
      let t0 = now () in
      let reply = handler payload in
      if reply <> None then Printf.fprintf oc "%.6f %.6f\n%!" t0 (now ());
      reply)
    ()

let suite_tuple t = (t.bench, t.level, t.machine)

type campaign_pass = {
  c_pass : pass;
  c_summary : Campaign.Runner.summary;
  c_rows : Campaign.Runner.row list;
  c_busy : (string * (float * float) list) list;  (** per worker *)
  c_dir : string;  (** the pass's store and busy logs *)
}

(* Resume the sweep from a fresh copy of the pre-seeded store over
   [cores] worker processes. *)
let campaign_pass ~dir ~template ~expect_hits tasks =
  rm_rf dir;
  let store_dir = Filename.concat dir "store" in
  let busy_dir = Filename.concat dir "busy" in
  copy_tree template store_dir;
  let store = Store.open_ store_dir in
  let scale = host_scale () in
  let argv =
    [|
      Sys.executable_name; "--worker"; "--store"; store_dir; "--busy-log"; busy_dir;
    |]
  in
  let t0 = now () in
  let rows, s =
    Campaign.Runner.sweep ~store ~resume:true ~workers:cores ~worker_argv:argv
      (List.map suite_tuple tasks)
  in
  let wall = now () -. t0 in
  let by_id = Hashtbl.create 128 in
  List.iter
    (fun (r : Campaign.Runner.row) ->
      Hashtbl.replace by_id (r.r_program, r.r_level, r.r_machine) r)
    rows;
  let sums = no_sums () in
  let failed = ref 0 in
  List.iter
    (fun t ->
      let ok =
        match Hashtbl.find_opt by_id (task_id t) with
        | None -> false
        | Some r ->
          let reference, ok = reference_of_row (parse_json "campaign row" r.r_row) in
          check t ~ok:(ok && r.r_output_ok && not r.r_timed_out) reference sums
      in
      if not ok then incr failed)
    tasks;
  if s.hits <> expect_hits || s.failures <> [] || s.diags <> [] then begin
    Printf.eprintf "perfbench: campaign resumed %d hits (want %d), %d failures, %d diagnostics\n%!"
      s.hits expect_hits (List.length s.failures) (List.length s.diags);
    failed := max !failed 1
  end;
  let busy = busy_times busy_dir in
  {
    c_pass =
      {
        wall;
        task_ms =
          List.concat_map
            (fun (_, l) -> List.map (fun (a, b) -> (b -. a) *. 1e3) l)
            busy;
        scale;
        attempted = List.length tasks;
        failed = !failed;
        sums;
      };
    c_summary = s;
    c_rows = rows;
    c_busy = busy;
    c_dir = dir;
  }

(* Set-up of the campaign: a seeded half of the tasks committed to a
   store, as a campaign killed half way would leave it.  The seed picks,
   for every program and level, which machine's task is committed, so
   the work left to resume is alike from seed to seed. *)
let seed_store ~dir ~seed tasks =
  rm_rf dir;
  let st = Random.State.make [| seed |] in
  let pick = Hashtbl.create 64 in
  let half =
    List.filter
      (fun t ->
        let pair = (t.bench.Programs.Suite.name, t.level) in
        let risc =
          match Hashtbl.find_opt pick pair with
          | Some r -> r
          | None ->
            let r = Random.State.bool st in
            Hashtbl.add pick pair r;
            r
        in
        risc = (t.machine == Ir.Machine.risc))
      tasks
  in
  let store = Store.open_ dir in
  let _, s =
    Campaign.Runner.sweep ~store ~resume:false ~workers:0
      (List.map suite_tuple half)
  in
  if s.computed <> List.length half || s.failures <> [] then
    die "seeding the campaign store computed %d of %d tasks" s.computed
      (List.length half);
  List.length half

(* --- traced passes ----------------------------------------------------- *)

let pass_names =
  [
    "licm"; "regalloc"; "isel"; "deadvars"; "gcse"; "cse"; "strength";
    "replicate"; "unreachable"; "branch-chain"; "constfold"; "displace";
    "legalize"; "replicate-final"; "reorder";
  ]

(* Per-layer sums over the traced passes (times in ms). *)
type layers = {
  mutable parse : float;
  mutable codegen : float;
  mutable rtls_out : int;
  mutable optimize : float;
  mutable alloc_words : float;
  pass_rows : (string, float * int) Hashtbl.t;
  mutable assemble : float;
  mutable decode : float;
  mutable engine_compile : float;
  mutable engine_run : float;
  mutable dyn_instrs : int;
  mutable bank : float;
  mutable fetches : int;
  mutable verify : float;
  mutable task : float;
  mutable unattributed : float;
  mutable store_find : float;
  mutable store_commit : float;
  mutable hits : int;
  mutable computed : int;
  mutable store_bytes : int;
  mutable busy_share : float;
  mutable traced_wall : float;
  mutable untraced_wall : float;
  mutable traced_passes : int;
  mutable untraced_passes : int;
}

let new_layers () =
  {
    parse = 0.;
    codegen = 0.;
    rtls_out = 0;
    optimize = 0.;
    alloc_words = 0.;
    pass_rows = Hashtbl.create 16;
    assemble = 0.;
    decode = 0.;
    engine_compile = 0.;
    engine_run = 0.;
    dyn_instrs = 0;
    bank = 0.;
    fetches = 0;
    verify = 0.;
    task = 0.;
    unattributed = 0.;
    store_find = 0.;
    store_commit = 0.;
    hits = 0;
    computed = 0;
    store_bytes = 0;
    busy_share = 0.;
    traced_wall = 0.;
    untraced_wall = 0.;
    traced_passes = 0;
    untraced_passes = 0;
  }

(* The fetch stream of one run, packed as [addr * 16 + size] into a
   buffer reused across tasks. *)
let fetch_buf = ref (Array.make (1 lsl 16) 0)
let fetch_len = ref 0

let record_fetch ~addr ~size =
  if !fetch_len = Array.length !fetch_buf then
    fetch_buf := Array.append !fetch_buf (Array.make !fetch_len 0);
  Array.unsafe_set !fetch_buf !fetch_len ((addr lsl 4) lor size);
  incr fetch_len

let no_fetch ~addr:_ ~size:_ = ()

(* One task, taken apart into the calls Harness.Measure.run makes, each
   under a span on lane 1: parse, codegen, optimize (with the profiler's
   pass rows), assemble, decode, engine compile, engine run, cache-bank
   replay, verify.  Recording the fetch stream that the bank replays is
   the benchmark's own work: it gets a span of its own and is left out of
   the task's time.  Returns whether the task passed. *)
let traced_task tr acc t =
  let children = ref 0. in
  let task_ts = Trace.now_us tr in
  let span name f =
    let ts = Trace.now_us tr in
    let r = f () in
    let dur = Trace.now_us tr -. ts in
    Trace.complete tr ~tid:1 ~cat:"layer" ~name ~ts_us:ts ~dur_us:dur ();
    children := !children +. dur;
    (r, dur /. 1e3)
  in
  let ast, ms =
    span "frontend.parse" (fun () ->
        Frontend.Parser.parse_program t.bench.Programs.Suite.source)
  in
  acc.parse <- acc.parse +. ms;
  let prog0, ms =
    span "frontend.codegen" (fun () -> Frontend.Codegen.compile_program ast)
  in
  acc.codegen <- acc.codegen +. ms;
  acc.rtls_out <- acc.rtls_out + Flow.Prog.static_instrs prog0;
  let profiler = Telemetry.Profiler.create () in
  let diags = ref [] in
  let alloc0 = Telemetry.Profiler.alloc_words () in
  let ts = Trace.now_us tr in
  let prog =
    Opt.Driver.optimize ~profiler ~diags
      { Opt.Driver.default_options with level = t.level }
      t.machine prog0
  in
  let dur = Trace.now_us tr -. ts in
  acc.alloc_words <- acc.alloc_words +. (Telemetry.Profiler.alloc_words () -. alloc0);
  let rows = Telemetry.Profiler.by_pass profiler in
  List.iter
    (fun (r : Telemetry.Profiler.pass_row) ->
      let ms, calls =
        Option.value ~default:(0., 0) (Hashtbl.find_opt acc.pass_rows r.p_pass)
      in
      Hashtbl.replace acc.pass_rows r.p_pass (ms +. r.p_wall_ms, calls + r.p_calls))
    rows;
  Trace.complete tr ~tid:1 ~cat:"layer" ~name:"opt.optimize" ~ts_us:ts
    ~dur_us:dur
    ~args:
      (List.map
         (fun (r : Telemetry.Profiler.pass_row) ->
           (r.p_pass, Json.Float r.p_wall_ms))
         rows)
    ();
  children := !children +. dur;
  acc.optimize <- acc.optimize +. (dur /. 1e3);
  let asm, ms = span "sim.assemble" (fun () -> Sim.Asm.assemble t.machine prog) in
  acc.assemble <- acc.assemble +. ms;
  (* The decode and compile the engine would do itself, made here so
     each is timed alone: both land in the caches Engine.run consults. *)
  let (), ms =
    span "sim.decode" (fun () ->
        let image = Sim.Image.build_scratch prog in
        ignore
          (Sim.Interp.decode_cached
             ~symbol:(fun s ->
               match Sim.Image.symbol image s with
               | a -> Some a
               | exception Not_found -> None)
             asm prog))
  in
  acc.decode <- acc.decode +. ms;
  let (), ms =
    span "sim.engine_compile" (fun () ->
        ignore (Sim.Engine.run ~max_steps:0 asm prog))
  in
  acc.engine_compile <- acc.engine_compile +. ms;
  let input = t.bench.Programs.Suite.input in
  let res, ms =
    span "sim.engine_run" (fun () ->
        Sim.Engine.run ~input ~on_fetch:no_fetch asm prog)
  in
  acc.engine_run <- acc.engine_run +. ms;
  acc.dyn_instrs <- acc.dyn_instrs + res.counts.total;
  let rec_ts = Trace.now_us tr in
  fetch_len := 0;
  let recorded = Sim.Engine.run ~input ~on_fetch:record_fetch asm prog in
  let rec_dur = Trace.now_us tr -. rec_ts in
  Trace.complete tr ~tid:1 ~cat:"bench" ~name:"bench.record_fetches"
    ~ts_us:rec_ts ~dur_us:rec_dur ();
  let bank, ms =
    span "icache.bank" (fun () ->
        let bank = Icache.Bank.create Icache.paper_configs in
        let buf = !fetch_buf in
        for i = 0 to !fetch_len - 1 do
          let f = Array.unsafe_get buf i in
          Icache.Bank.access bank ~addr:(f lsr 4) ~size:(f land 15)
        done;
        bank)
  in
  acc.bank <- acc.bank +. ms;
  acc.fetches <- acc.fetches + !fetch_len;
  let ok, ms =
    span "harness.verify" (fun () ->
        let n = List.length Icache.paper_configs in
        let r =
          {
            counts =
              Array.of_list
                ([
                   Sim.Asm.static_instrs asm;
                   Sim.Asm.static_ujumps asm;
                   Sim.Asm.static_nops asm;
                   Sim.Asm.code_bytes asm;
                   res.counts.total;
                   Sim.Interp.uncond_jumps res.counts;
                   res.counts.nops;
                   Sim.Interp.transfers res.counts;
                 ]
                @ List.init n (Icache.Bank.fetch_cost bank));
            ratios =
              Array.init n (fun i -> ratio_string (Icache.Bank.miss_ratio bank i));
          }
        in
        (not res.timed_out)
        && String.equal res.output t.bench.Programs.Suite.expected_output
        && recorded.output = res.output
        && recorded.counts.total = res.counts.total
        && (not (Telemetry.Diag.has_errors !diags))
        && t.reference = Some r)
  in
  acc.verify <- acc.verify +. ms;
  let total = Trace.now_us tr -. task_ts in
  Trace.complete tr ~tid:1 ~cat:"task" ~name:(label t) ~ts_us:task_ts
    ~dur_us:total
    ~args:[ ("excluded_us", Json.Float rec_dur) ]
    ();
  let total = total -. rec_dur in
  acc.task <- acc.task +. (total /. 1e3);
  acc.unattributed <- acc.unattributed +. ((total -. !children) /. 1e3);
  ok

let traced_tasks tr acc tasks =
  let misses0 = engine_misses () in
  let failed =
    List.fold_left
      (fun failed t ->
        match traced_task tr acc t with
        | true -> failed
        | false -> failed + 1
        | exception e ->
          prerr_endline
            ("perfbench: traced " ^ label t ^ " raised " ^ Printexc.to_string e);
          failed + 1)
      0 tasks
  in
  let misses = engine_misses () - misses0 in
  if failed = 0 && misses <> List.length tasks then
    die "traced pass: engine compile cache missed %d times for %d tasks" misses
      (List.length tasks);
  failed

let measure_key t =
  Campaign.Key.measure ~engine:Sim.Engine.Threaded t.bench t.level t.machine

(* Store entries for tasks measured in-process: each task's reference
   under its campaign key. *)
let task_entries tasks =
  List.filter_map
    (fun t ->
      Option.map
        (fun r ->
          let ints a = Json.Arr (Array.to_list (Array.map (fun c -> Json.Int c) a)) in
          ( measure_key t,
            Json.Obj
              [
                ("task", Json.Str (label t));
                ("counts", ints r.counts);
                ("ratios", Json.Arr (Array.to_list (Array.map (fun s -> Json.Str s) r.ratios)));
              ] ))
        t.reference)
    tasks

(* The store layer, timed from outside: commit [entries] to a fresh
   store, then look every key up.  Returns the hits. *)
let store_round tr acc ~dir entries =
  rm_rf dir;
  let store = Store.open_ dir in
  let timed name f =
    let ts = Trace.now_us tr in
    let r = f () in
    let dur = Trace.now_us tr -. ts in
    Trace.complete tr ~tid:2 ~cat:"layer" ~name ~ts_us:ts ~dur_us:dur ();
    (r, dur /. 1e3)
  in
  let (), ms =
    timed "campaign.store_commit" (fun () ->
        List.iter (fun (key, e) -> Store.commit store ~key e) entries)
  in
  acc.store_commit <- acc.store_commit +. ms;
  let hits, ms =
    timed "campaign.store_find" (fun () ->
        List.fold_left
          (fun n (key, _) ->
            match Store.find store key with Store.Hit _ -> n + 1 | _ -> n)
          0 entries)
  in
  acc.store_find <- acc.store_find +. ms;
  acc.store_bytes <- acc.store_bytes + snd (Store.disk_usage store);
  hits

(* --- output ------------------------------------------------------------- *)

type value = I of int | F of float

let render_value = function
  | I n -> string_of_int n
  | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | F _ -> "null"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (render_value v)
          unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)

(* Per traced pass; times at nominal host speed ([scale]). *)
let layer_metrics acc ~scale =
  let per_pass n = float_of_int n /. float_of_int (max 1 acc.traced_passes) in
  let ms x = F (x *. scale /. float_of_int (max 1 acc.traced_passes)) in
  let count n = I (int_of_float (Float.round (per_pass n))) in
  let pass_sum = Hashtbl.fold (fun _ (ms, _) s -> s +. ms) acc.pass_rows 0. in
  let pass_metrics =
    List.concat_map
      (fun p ->
        let ms_, calls =
          Option.value ~default:(0., 0) (Hashtbl.find_opt acc.pass_rows p)
        in
        [
          (Printf.sprintf "opt.pass.%s_ms" p, "ms", ms ms_);
          (Printf.sprintf "opt.pass.%s_calls" p, "count", count calls);
        ])
      pass_names
  in
  [
    ("frontend.parse_ms", "ms", ms acc.parse);
    ("frontend.codegen_ms", "ms", ms acc.codegen);
    ("frontend.rtls_out", "count", count acc.rtls_out);
    ("opt.optimize_ms", "ms", ms acc.optimize);
    ("opt.driver_self_ms", "ms", ms (acc.optimize -. pass_sum));
  ]
  @ pass_metrics
  @ [
      ("opt.alloc_mw", "Mw", F (acc.alloc_words /. 1e6 /. float_of_int (max 1 acc.traced_passes)));
      ("sim.assemble_ms", "ms", ms acc.assemble);
      ("sim.decode_ms", "ms", ms acc.decode);
      ("sim.engine_compile_ms", "ms", ms acc.engine_compile);
      ("sim.engine_run_ms", "ms", ms acc.engine_run);
      ("sim.dyn_instrs", "count", count acc.dyn_instrs);
      ( "sim.minstrs_per_s",
        "Minstr/s",
        F (float_of_int acc.dyn_instrs /. (acc.engine_run *. scale *. 1e3)) );
      ("icache.bank_ms", "ms", ms acc.bank);
      ("icache.fetches", "count", count acc.fetches);
      ( "icache.ns_per_fetch",
        "ns",
        F (acc.bank *. scale *. 1e6 /. float_of_int (max 1 acc.fetches)) );
      ("harness.verify_ms", "ms", ms acc.verify);
      ("harness.unattributed_ms", "ms", ms acc.unattributed);
      ("harness.task_ms", "ms", ms acc.task);
      ( "harness.trace_overhead_ms",
        "ms",
        F
          (1e3
          *. ((acc.traced_wall /. float_of_int (max 1 acc.traced_passes))
             -. (acc.untraced_wall /. float_of_int (max 1 acc.untraced_passes))
             )) );
      ("campaign.store_find_ms", "ms", ms acc.store_find);
      ("campaign.store_commit_ms", "ms", ms acc.store_commit);
      ("campaign.hits", "count", count acc.hits);
      ("campaign.computed", "count", count acc.computed);
      ("campaign.store_bytes", "bytes", count acc.store_bytes);
      ( "campaign.shard_busy_share",
        "ratio",
        F (acc.busy_share /. float_of_int (max 1 acc.traced_passes)) );
    ]


(* --- the workloads ------------------------------------------------------ *)

type workload = Paper_sweep | Gen_large | Campaign_resume

let workloads =
  [ ("paper_sweep", Paper_sweep); ("gen_large", Gen_large); ("campaign", Campaign_resume) ]

(* Set up [reps] times, keep the last inputs, report the median time at
   nominal host speed. *)
let timed_setup reps f =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    let scale = host_scale () in
    let t0 = now () in
    let x = f () in
    times := ((now () -. t0) *. scale) :: !times;
    last := Some x
  done;
  (Option.get !last, median !times)

(* Call [f 0], [f 1], ... while another call, as long as the last one,
   still ends within [seconds]; at least once. *)
let run_until seconds f =
  let t0 = now () in
  let rec go n last =
    if n = 0 || now () -. t0 +. last <= seconds then begin
      let s = now () in
      f n;
      go (n + 1) (now () -. s)
    end
  in
  go 0 0.

let main ~name ~workload ~seed ~seconds ~trace ~tiny ~tamper =
  let dir =
    Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  mkdir_p dir;
  at_exit (fun () -> rm_rf dir);
  let template = Filename.concat dir "seeded-store" in
  let setup () =
    match workload with
    | Paper_sweep -> (shuffle seed (paper_tasks ~tiny), [], 0)
    | Campaign_resume ->
      (* In [bench --json --store] order; the seed picks the seeded half. *)
      let tasks = paper_tasks ~tiny in
      (tasks, [], seed_store ~dir:template ~seed tasks)
    | Gen_large ->
      let progs = gen_programs ~dir ~tiny in
      (* The seed orders the programs; each program's six configurations
         stay together, in matrix order. *)
      let progs = shuffle seed progs in
      let tasks =
        List.concat_map (fun g -> matrix [ g.g_bench ]) progs
      in
      (tasks, progs, 0)
  in
  let reps =
    if tiny then 1 else match workload with Paper_sweep -> 5 | _ -> 3
  in
  let (tasks, progs, seeded), setup_s = timed_setup reps setup in
  let tasks =
    match tasks with
    | t :: rest when tamper -> (
      match workload with
      | Campaign_resume ->
        (* Workers verify outputs against the suite's own goldens, so on
           the campaign the tampered reference is the baseline row. *)
        let r = Option.get t.reference in
        let counts = Array.copy r.counts in
        counts.(4) <- counts.(4) + 1;
        { t with reference = Some { r with counts } } :: rest
      | Paper_sweep | Gen_large ->
        { t with bench = tamper_golden t.bench } :: rest)
    | _ -> tasks
  in
  Printf.printf "workload %s, seed %d: %d tasks, set-up %.3f s (median of %d)\n"
    name seed (List.length tasks) setup_s reps;
  List.iter
    (fun g ->
      Printf.printf "  Gen seed %d: main has %d RTLs in %d blocks\n" g.g_seed
        g.g_rtls g.g_blocks)
    progs;
  let attempted = ref 0 and failed = ref 0 in
  let count (p : pass) =
    attempted := !attempted + p.attempted;
    failed := !failed + p.failed
  in
  (* One cold, untraced pass; the campaign's also hands back its rows. *)
  let untraced n =
    match workload with
    | Campaign_resume ->
      let c =
        campaign_pass
          ~dir:(Filename.concat dir (Printf.sprintf "pass%d" n))
          ~template ~expect_hits:seeded tasks
      in
      count c.c_pass;
      (c.c_pass, Some c)
    | Paper_sweep | Gen_large ->
      let p = measure_pass tasks in
      count p;
      (p, None)
  in
  if not trace then begin
    let passes = ref [] in
    run_until seconds (fun n ->
        let p, c = untraced n in
        Option.iter (fun c -> rm_rf c.c_dir) c;
        passes := p :: !passes);
    let passes = List.rev !passes in
    let walls = List.map (fun p -> p.wall *. p.scale) passes in
    let task_ms =
      List.concat_map (fun p -> List.map (( *. ) p.scale) p.task_ms) passes
    in
    let s = (List.hd passes).sums in
    Printf.printf
      "%d passes, raw wall %s s at host scale %s; %d task samples; \
       failed_share %g (%d of %d)\n"
      (List.length passes)
      (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall) passes))
      (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.scale) passes))
      (List.length task_ms)
      (float_of_int !failed /. float_of_int (max 1 !attempted))
      !failed !attempted;
    print_result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed
      [
        ("setup_s", "s", F setup_s);
        ("wall_s", "s", F (median walls));
        ("task_ms_p50", "ms", F (median task_ms));
        ("task_ms_p90", "ms", F (percentile 0.9 task_ms));
        ("peak_rss_mb", "MB", F (peak_rss_mb ()));
        ("dyn_instrs", "count", I s.s_dyn_instrs);
        ("dyn_ujumps", "count", I s.s_dyn_ujumps);
        ("code_bytes", "bytes", I s.s_code_bytes);
        ("fetch_cost", "units", I s.s_fetch_cost);
      ]
  end
  else begin
    let acc = new_layers () in
    let tr = Trace.create () in
    Trace.process_name tr ("perfbench " ^ name);
    Trace.thread_name tr ~tid:1 "tasks";
    Trace.thread_name tr ~tid:2 "store";
    (* Absolute time of the trace's origin, to place worker intervals. *)
    let origin = now () -. (Trace.now_us tr /. 1e6) in
    let store_dir = Filename.concat dir "store-round" in
    (* Decompose [tasks] under spans; returns their summed task time. *)
    let decompose tasks =
      let before = acc.task in
      let f = traced_tasks tr acc tasks in
      attempted := !attempted + List.length tasks;
      failed := !failed + f;
      acc.task -. before
    in
    let scales = ref [] in
    run_until seconds (fun n ->
        let p, c = untraced (2 * n) in
        Option.iter (fun c -> rm_rf c.c_dir) c;
        acc.untraced_wall <- acc.untraced_wall +. (p.wall *. p.scale);
        acc.untraced_passes <- acc.untraced_passes + 1;
        (match workload with
        | Paper_sweep | Gen_large ->
          let scale = host_scale () in
          scales := scale :: !scales;
          let t0 = now () in
          let busy_ms = decompose tasks in
          let wall = now () -. t0 in
          acc.traced_wall <- acc.traced_wall +. (wall *. scale);
          acc.busy_share <- acc.busy_share +. (busy_ms /. 1e3 /. (float_of_int cores *. wall));
          acc.computed <- acc.computed + List.length tasks;
          acc.hits <- acc.hits + store_round tr acc ~dir:store_dir (task_entries tasks)
        | Campaign_resume ->
          (* The sharded sweep itself is traced from outside: its span, and
             each worker's busy intervals read back from the busy logs. *)
          let ts = Trace.now_us tr in
          let _, c = untraced ((2 * n) + 1) in
          let c = Option.get c in
          Trace.complete tr ~tid:2 ~cat:"campaign" ~name:"campaign.sweep" ~ts_us:ts
            ~dur_us:(c.c_pass.wall *. 1e6) ();
          List.iteri
            (fun k (_, intervals) ->
              Trace.thread_name tr ~tid:(10 + k) (Printf.sprintf "worker %d" k);
              List.iter
                (fun (a, b) ->
                  Trace.complete tr ~tid:(10 + k) ~cat:"campaign" ~name:"worker.measure"
                    ~ts_us:((a -. origin) *. 1e6) ~dur_us:((b -. a) *. 1e6) ())
                intervals)
            c.c_busy;
          let busy = sum_f c.c_pass.task_ms /. 1e3 in
          scales := c.c_pass.scale :: !scales;
          acc.traced_wall <- acc.traced_wall +. (c.c_pass.wall *. c.c_pass.scale);
          acc.busy_share <- acc.busy_share +. (busy /. (float_of_int cores *. c.c_pass.wall));
          acc.hits <- acc.hits + c.c_summary.hits;
          acc.computed <- acc.computed + c.c_summary.computed;
          (* The store layer over the workload's keys, then the layer
             split of the tasks the workers computed, redone in-process. *)
          let pass_store = Store.open_ (Filename.concat c.c_dir "store") in
          let entries =
            List.filter_map
              (fun t ->
                let key = measure_key t in
                match Store.find pass_store key with
                | Store.Hit j -> Some (key, j)
                | Store.Miss | Store.Corrupt _ -> None)
              tasks
          in
          ignore (store_round tr acc ~dir:store_dir entries);
          rm_rf c.c_dir;
          let computed =
            List.filter
              (fun t ->
                List.exists
                  (fun (r : Campaign.Runner.row) ->
                    (not r.r_cached) && (r.r_program, r.r_level, r.r_machine) = task_id t)
                  c.c_rows)
              tasks
          in
          ignore (decompose computed));
        acc.traced_passes <- acc.traced_passes + 1);
    let trace_out =
      Filename.concat work_root (Printf.sprintf "trace-%s-%d.json" name seed)
    in
    Out_channel.with_open_bin trace_out (fun oc -> Trace.write tr oc);
    let scale = median !scales in
    let share = acc.unattributed /. acc.task in
    Printf.printf
      "%d traced passes at host scale %.3f; unattributed %.2f%% of traced \
       task time; tracing overhead %.1f ms per pass; failed_share %g (%d of \
       %d); trace in %s\n"
      acc.traced_passes scale (100. *. share)
      (1e3
      *. ((acc.traced_wall /. float_of_int acc.traced_passes)
         -. (acc.untraced_wall /. float_of_int acc.untraced_passes)))
      (float_of_int !failed /. float_of_int (max 1 !attempted))
      !failed !attempted trace_out;
    print_result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed
      (layer_metrics acc ~scale)
  end

let usage =
  "bench.exe --workload paper_sweep|gen_large|campaign --seed N --seconds S \
   --trace 0|1 [--tiny] [--tamper-golden]"

let () =
  let argv = Array.to_list Sys.argv in
  let flag name = List.mem name argv in
  let value name =
    let rec find = function
      | k :: v :: _ when k = name -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  if flag "--worker" then begin
    (* A campaign worker process: serve measure frames on stdin/stdout. *)
    let path name =
      match value name with Some p -> p | None -> die "--worker needs %s" name
    in
    worker_main ~store:(path "--store") ~busy_log:(path "--busy-log");
    exit 0
  end;
  (* The same heap settings as bench/main.exe. *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20; space_overhead = 200 };
  let int name =
    match Option.bind (value name) int_of_string_opt with
    | Some n -> n
    | None -> die "missing or bad %s\nusage: %s" name usage
  in
  let name = Option.value ~default:"" (value "--workload") in
  let workload =
    match List.assoc_opt name workloads with
    | Some w -> w
    | None -> die "unknown --workload %S\nusage: %s" name usage
  in
  main ~name ~workload ~seed:(int "--seed")
    ~seconds:(float_of_int (int "--seconds"))
    ~trace:(int "--trace" = 1) ~tiny:(flag "--tiny")
    ~tamper:(flag "--tamper-golden")
