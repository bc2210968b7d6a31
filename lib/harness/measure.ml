type cache_stats = {
  config : Icache.config;
  miss_ratio : float;
  fetch_cost : int;
}

type t = {
  program : string;
  level : Opt.Driver.level;
  machine : Ir.Machine.t;
  static_instrs : int;
  static_ujumps : int;
  static_nops : int;
  code_bytes : int;
  dyn_instrs : int;
  dyn_ujumps : int;
  dyn_nops : int;
  dyn_transfers : int;
  output : string;
  output_ok : bool;
  timed_out : bool;
  caches : cache_stats list;
}

let instrs_between_branches t =
  float_of_int t.dyn_instrs /. float_of_int (max 1 t.dyn_transfers)

(* One lock for all module-level state (memo, mismatch/timeout/failure
   lists): the daemon's resident workers call the measurement entry
   points concurrently, where the bench sweeps only ever touched this
   state from the supervising domain.  Never held across a measurement —
   only across the bookkeeping around one. *)
let state_mu = Mutex.create ()

let locked f =
  Mutex.lock state_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock state_mu) f

(* The memo key hashes source/input/expectation so ad-hoc files measured
   under the same name (or a re-generated suite) can never alias. *)
let memo : (string * string * Opt.Driver.level * string, t) Hashtbl.t =
  Hashtbl.create 128

let memo_key (b : Programs.Suite.benchmark) level machine =
  ( b.name,
    Digest.to_hex
      (Digest.string (b.source ^ "\x00" ^ b.input ^ "\x00" ^ b.expected_output)),
    level,
    machine.Ir.Machine.short )

let reset_cache () = locked (fun () -> Hashtbl.reset memo)

(* Output mismatches found this process, in discovery order.  [run_suite]
   and the bench drivers use this to fail loudly instead of relying on
   every caller to inspect [output_ok]. *)
let failed : (string * Opt.Driver.level * string) list ref = ref []
let mismatches () = locked (fun () -> List.rev !failed)

(* Step-limit exhaustions, kept apart from mismatches: a hang is a
   distinct verdict (the output comparison is meaningless for it). *)
let hung : (string * Opt.Driver.level * string) list ref = ref []
let timeouts () = locked (fun () -> List.rev !hung)

(* Supervised tasks that produced no measurement at all — the worker
   crashed or the deadline expired on every attempt.  Kept apart from
   mismatches and timeouts: those describe a *measurement's* verdict,
   these describe a task that has none. *)
type task_failure = {
  f_program : string;
  f_level : Opt.Driver.level;
  f_machine : string;
  f_kind : string;  (* "crashed" | "timed-out" *)
  f_detail : string;
  f_attempts : int;
  f_elapsed : float;
}

let task_failed : task_failure list ref = ref []
let task_failures () = locked (fun () -> List.rev !task_failed)

let last_pool_stats = ref Pool.no_stats
let pool_stats () = !last_pool_stats

let failure_to_json f =
  Printf.sprintf
    "{\"program\":%s,\"level\":%s,\"machine\":%s,\"kind\":%s,\"detail\":%s,\
     \"attempts\":%d,\"elapsed\":%.3f}"
    (Telemetry.Log.json_string f.f_program)
    (Telemetry.Log.json_string (Opt.Driver.level_name f.f_level))
    (Telemetry.Log.json_string f.f_machine)
    (Telemetry.Log.json_string f.f_kind)
    (Telemetry.Log.json_string f.f_detail)
    f.f_attempts f.f_elapsed

let record_task_failure log ~kind ~detail ~attempts ~elapsed
    (b : Programs.Suite.benchmark) level (machine : Ir.Machine.t) =
  locked (fun () ->
      task_failed :=
        {
          f_program = b.name;
          f_level = level;
          f_machine = machine.Ir.Machine.short;
          f_kind = kind;
          f_detail = detail;
          f_attempts = attempts;
          f_elapsed = elapsed;
        }
        :: !task_failed);
  Telemetry.Log.emit log (fun () ->
      Telemetry.Log.Warning
        {
          message =
            Printf.sprintf "%s at %s on %s: task %s after %d attempt%s (%s)"
              b.name
              (Opt.Driver.level_name level)
              machine.Ir.Machine.short kind attempts
              (if attempts = 1 then "" else "s")
              detail;
        })

let record_mismatch log (m : t) ~expected =
  locked (fun () ->
      failed := (m.program, m.level, m.machine.Ir.Machine.short) :: !failed);
  Telemetry.Log.emit log (fun () ->
      Telemetry.Log.Warning
        {
          message =
            Printf.sprintf "%s at %s on %s: output MISMATCH (%d bytes, want %d)"
              m.program
              (Opt.Driver.level_name m.level)
              m.machine.Ir.Machine.short (String.length m.output)
              (String.length expected);
        })

let record_timeout log (m : t) =
  locked (fun () ->
      hung := (m.program, m.level, m.machine.Ir.Machine.short) :: !hung);
  Telemetry.Log.emit log (fun () ->
      Telemetry.Log.Warning
        {
          message =
            Printf.sprintf "%s at %s on %s: TIMEOUT (step limit exhausted)"
              m.program
              (Opt.Driver.level_name m.level)
              m.machine.Ir.Machine.short;
        })

(* The side-effect-free core of a measurement: compile, assemble, run
   through the cache bank, bump counters on [log].  No module-level state
   is touched and nothing beyond [log] (and the [profiler] shard) is
   written, so this is what pool workers run on their own domain with a
   private log. *)
let measure_raw ?opts ?(log = Telemetry.Log.null)
    ?(profiler = Telemetry.Profiler.null) ?(verify = true) ?budget
    ?(engine = Sim.Engine.Threaded) (b : Programs.Suite.benchmark) level machine
    =
  let profiling = Telemetry.Profiler.enabled profiler in
  let opts =
    match opts with
    | Some o -> { o with Opt.Driver.level }
    | None -> { Opt.Driver.default_options with level }
  in
  let prog =
    Opt.Driver.optimize ~log ~profiler opts machine
      (Frontend.Codegen.compile_source b.source)
  in
  let asm = Sim.Asm.assemble machine prog in
  let bank = Icache.Bank.create Icache.paper_configs in
  (* Cache-bank time is measured inside the fetch hook so it attributes
     only the bank's own work; gettimeofday is vDSO-cheap and the timed
     hook exists only under --profile. *)
  let cache_s = ref 0.0 in
  let on_fetch =
    if profiling then (fun ~addr ~size ->
      let t0 = Unix.gettimeofday () in
      let r = Icache.Bank.access bank ~addr ~size in
      cache_s := !cache_s +. (Unix.gettimeofday () -. t0);
      r)
    else fun ~addr ~size -> Icache.Bank.access bank ~addr ~size
  in
  (* The pool's deadline budget feeds only the interpreter (its fuel
     accounting doubles as the poll point): a cancelled run raises
     [Budget.Exhausted] and surfaces as a pool-level [Timed_out] outcome,
     never as a silently different measurement — completed results stay
     identical to a sequential, budget-free sweep. *)
  let interp_t0 = Unix.gettimeofday () in
  let exec = Sim.Engine.select engine in
  let res = exec ~input:b.input ~on_fetch ~log ?budget asm prog in
  let interp_ms = (Unix.gettimeofday () -. interp_t0) *. 1e3 in
  let m =
    {
      program = b.name;
      level;
      machine;
      static_instrs = Sim.Asm.static_instrs asm;
      static_ujumps = Sim.Asm.static_ujumps asm;
      static_nops = Sim.Asm.static_nops asm;
      code_bytes = Sim.Asm.code_bytes asm;
      dyn_instrs = res.counts.total;
      dyn_ujumps = Sim.Interp.uncond_jumps res.counts;
      dyn_nops = res.counts.nops;
      dyn_transfers = Sim.Interp.transfers res.counts;
      output = res.output;
      output_ok =
        (not res.timed_out)
        && ((not verify) || String.equal res.output b.expected_output);
      timed_out = res.timed_out;
      caches =
        List.mapi
          (fun i config ->
            {
              config;
              miss_ratio = Icache.Bank.miss_ratio bank i;
              fetch_cost = Icache.Bank.fetch_cost bank i;
            })
          Icache.paper_configs;
    }
  in
  let metrics = Telemetry.Log.metrics log in
  Telemetry.Metrics.incr metrics "measure.runs";
  Telemetry.Metrics.add metrics "measure.static_instrs" m.static_instrs;
  Telemetry.Metrics.add metrics "measure.static_ujumps" m.static_ujumps;
  Telemetry.Metrics.add metrics "measure.dyn_instrs" m.dyn_instrs;
  Telemetry.Metrics.add metrics "measure.dyn_ujumps" m.dyn_ujumps;
  if m.timed_out then Telemetry.Metrics.incr metrics "measure.timeouts";
  (* Histograms live beside the counters in the registry; the bench JSON's
     "counters" object reads only counters, so this never perturbs it. *)
  Telemetry.Metrics.observe metrics "measure.run_instrs"
    ~buckets:Telemetry.Metrics.Buckets.instrs
    (float_of_int m.dyn_instrs);
  if profiling then begin
    Telemetry.Metrics.observe metrics "measure.interp_ms"
      ~buckets:Telemetry.Metrics.Buckets.time_ms interp_ms;
    Telemetry.Profiler.record_run profiler
      ~run:
        (Printf.sprintf "%s/%s/%s" b.name
           (Opt.Driver.level_name level)
           machine.Ir.Machine.short)
      ~fuel:res.counts.total ~interp_ms
      ~cache_ms:(!cache_s *. 1e3)
  end;
  m

(* The stateful tail of a measurement — mismatch/timeout bookkeeping in
   the module-level lists (lock-guarded; daemon workers land here
   concurrently). *)
let record log (b : Programs.Suite.benchmark) m =
  if m.timed_out then record_timeout log m
  else if not m.output_ok then record_mismatch log m ~expected:b.expected_output

let measure ?opts ?(log = Telemetry.Log.null) ?profiler ?verify ?budget ?engine
    (b : Programs.Suite.benchmark) level machine =
  let m =
    measure_raw ?opts ~log ?profiler ?verify ?budget ?engine b level machine
  in
  record log b m;
  m

(* The memo key carries no engine: the engines are observationally
   equivalent (the test suite holds them to it), so a measurement is a
   valid answer whichever engine computed it. *)
let run ?opts ?log ?profiler ?verify ?budget ?engine
    (b : Programs.Suite.benchmark) level machine =
  match opts with
  | Some _ ->
    measure ?opts ?log ?profiler ?verify ?budget ?engine b level machine
  | None -> (
    let key = memo_key b level machine in
    (* The lock never spans the measurement itself: a racing miss computes
       twice and both add the same (deterministic) value. *)
    match locked (fun () -> Hashtbl.find_opt memo key) with
    | Some t -> t
    | None ->
      let t = measure ?log ?profiler ?verify ?budget ?engine b level machine in
      locked (fun () -> Hashtbl.replace memo key t);
      t)

let run_adhoc ?opts ?log ?budget ?engine ~name ~source ?(input = "")
    ?expected_output level machine =
  (* Without an expectation, the run is its own reference: [output_ok] is
     forced true and callers compare outputs across levels instead. *)
  let b =
    {
      Programs.Suite.name;
      clazz = "Ad hoc";
      description = "ad-hoc measurement";
      source;
      input;
      expected_output = Option.value ~default:"" expected_output;
    }
  in
  run ?opts ?log ?budget ?engine ~verify:(expected_output <> None) b level
    machine

(* Parallel sweep over (benchmark, level, machine) tasks.  The memo
   table, mismatch/timeout lists and the caller's log stay on this
   domain: memo hits are resolved before dispatch, workers run
   [measure_raw] against a private in-memory log, and after the joins
   each task's events and counters are folded into [log] in task order —
   so results, telemetry and recorded failures are byte-for-byte those
   of the sequential sweep, whatever [jobs] is. *)
let run_many ?(log = Telemetry.Log.null) ?(profiler = Telemetry.Profiler.null)
    ?trace ?(metrics = Telemetry.Metrics.null) ?(jobs = 1) ?deadline ?retries
    ?chaos ?engine tasks =
  if jobs <= 1 && deadline = None && chaos = None && trace = None then
    List.map (fun (b, level, m) -> run ~log ~profiler ?engine b level m) tasks
  else begin
    let logging = Telemetry.Log.enabled log in
    let profiling = Telemetry.Profiler.enabled profiler in
    let pending = Hashtbl.create 16 in
    let to_run =
      List.filter
        (fun (b, level, m) ->
          let key = memo_key b level m in
          (not (locked (fun () -> Hashtbl.mem memo key)))
          && (not (Hashtbl.mem pending key))
          && (Hashtbl.add pending key (); true))
        tasks
    in
    let label (b, level, m) =
      Printf.sprintf "%s/%s/%s" b.Programs.Suite.name
        (Opt.Driver.level_name level)
        m.Ir.Machine.short
    in
    let outcomes, stats =
      Pool.supervise ~jobs ?deadline ?retries ?chaos ?trace ~label
        (fun budget (b, level, m) ->
          let wlog =
            if logging then Telemetry.Log.make Telemetry.Log.Memory
            else Telemetry.Log.null
          in
          let wprof =
            if profiling then Telemetry.Profiler.create ()
            else Telemetry.Profiler.null
          in
          ( measure_raw ~log:wlog ~profiler:wprof ~budget ?engine b level m,
            wlog,
            wprof ))
        to_run
    in
    last_pool_stats := stats;
    Pool.stats_to_metrics stats metrics;
    List.iter2
      (fun (b, level, machine) outcome ->
        match outcome with
        | Pool.Done (res, wlog, wprof) ->
          if logging then begin
            List.iter
              (fun ev -> Telemetry.Log.emit log (fun () -> ev))
              (Telemetry.Log.events wlog);
            (* Shard merge in task order: counters add and histograms
               fold bucket-wise, so the merged registry matches a
               sequential sweep's. *)
            Telemetry.Metrics.merge
              ~into:(Telemetry.Log.metrics log)
              (Telemetry.Log.metrics wlog)
          end;
          if profiling then Telemetry.Profiler.merge ~into:profiler wprof;
          record log b res;
          locked (fun () -> Hashtbl.replace memo (memo_key b level machine) res)
        | Pool.Crashed { exn; backtrace; attempts } ->
          let detail =
            match String.trim backtrace with
            | "" -> Printexc.to_string exn
            | bt -> Printexc.to_string exn ^ " | " ^ bt
          in
          record_task_failure log ~kind:"crashed" ~detail ~attempts
            ~elapsed:0. b level machine
        | Pool.Timed_out { elapsed; attempts } ->
          record_task_failure log ~kind:"timed-out"
            ~detail:(Printf.sprintf "deadline expired after %.2fs" elapsed)
            ~attempts ~elapsed b level machine)
      to_run outcomes;
    (* Failed tasks have no measurement: the sweep's result list simply
       omits them (callers consult [task_failures] for the rest). *)
    List.filter_map
      (fun (b, level, m) ->
        locked (fun () -> Hashtbl.find_opt memo (memo_key b level m)))
      tasks
  end

let run_suite ?log ?profiler ?trace ?metrics ?jobs ?deadline ?retries ?chaos
    ?engine level machine =
  run_many ?log ?profiler ?trace ?metrics ?jobs ?deadline ?retries ?chaos
    ?engine
    (List.map (fun b -> (b, level, machine)) Programs.Suite.all)

(* --- JSON rendering (the bench drivers' machine-readable output) --- *)

let cache_to_json (c : cache_stats) =
  Printf.sprintf
    "{\"config\":%s,\"size_kb\":%d,\"assoc\":%d,\"context_switches\":%b,\
     \"miss_ratio\":%.6f,\"fetch_cost\":%d}"
    (Telemetry.Log.json_string (Icache.config_name c.config))
    (c.config.Icache.size_bytes / 1024)
    c.config.Icache.assoc c.config.Icache.context_switches c.miss_ratio
    c.fetch_cost

let to_json m =
  Printf.sprintf
    "{\"program\":%s,\"level\":%s,\"machine\":%s,\"static_instrs\":%d,\
     \"static_ujumps\":%d,\"static_nops\":%d,\"code_bytes\":%d,\
     \"dyn_instrs\":%d,\
     \"dyn_ujumps\":%d,\"dyn_nops\":%d,\"dyn_transfers\":%d,\
     \"instrs_between_branches\":%.3f,\"output_ok\":%b,\"timed_out\":%b,\
     \"caches\":[%s]}"
    (Telemetry.Log.json_string m.program)
    (Telemetry.Log.json_string (Opt.Driver.level_name m.level))
    (Telemetry.Log.json_string m.machine.Ir.Machine.short)
    m.static_instrs m.static_ujumps m.static_nops m.code_bytes m.dyn_instrs
    m.dyn_ujumps
    m.dyn_nops m.dyn_transfers
    (instrs_between_branches m)
    m.output_ok m.timed_out
    (String.concat "," (List.map cache_to_json m.caches))
