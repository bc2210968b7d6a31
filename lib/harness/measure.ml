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

(* One lock for all module-level state (memo, mismatch/timeout lists).
   Never held across a measurement — only across the
   bookkeeping around one. *)
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
   through the cache bank.  Neither the memo nor the mismatch/timeout
   records are touched, and nothing beyond [log] (and the [profiler])
   is written, so this is what a sweep's handler runs. *)
let measure_raw ?opts ?(log = Telemetry.Log.null)
    ?(profiler = Telemetry.Profiler.null) ?(verify = true) ?budget
    (b : Programs.Suite.benchmark) level machine =
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
  (* The in-process deadline budget feeds only the interpreter (its fuel
     accounting doubles as the poll point): an expired budget raises
     [Budget.Exhausted] and surfaces as a pool-level [Timed_out] outcome,
     never as a silently different measurement — completed results stay
     identical to a sequential, budget-free sweep. *)
  let res = Sim.Engine.run ~input:b.input ~bank ~log ?budget asm prog in
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

(* [measure_raw] plus the stateful tail: mismatch/timeout bookkeeping in
   the module-level lists (lock-guarded). *)
let measure ?opts ?(log = Telemetry.Log.null) ?profiler ?verify
    (b : Programs.Suite.benchmark) level machine =
  let m = measure_raw ?opts ~log ?profiler ?verify b level machine in
  if m.timed_out then record_timeout log m
  else if not m.output_ok then record_mismatch log m ~expected:b.expected_output;
  m

let run ?opts ?log ?profiler ?verify (b : Programs.Suite.benchmark) level
    machine =
  match opts with
  | Some _ -> measure ?opts ?log ?profiler ?verify b level machine
  | None -> (
    let key = memo_key b level machine in
    (* The lock never spans the measurement itself: a racing miss computes
       twice and both add the same (deterministic) value. *)
    match locked (fun () -> Hashtbl.find_opt memo key) with
    | Some t -> t
    | None ->
      let t = measure ?log ?profiler ?verify b level machine in
      locked (fun () -> Hashtbl.replace memo key t);
      t)

let run_adhoc ?opts ?log ~name ~source ?(input = "")
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
  run ?opts ?log ~verify:(expected_output <> None) b level machine

let run_suite ?log ?profiler level machine =
  List.map (fun b -> run ?log ?profiler b level machine) Programs.Suite.all

(* --- JSON rendering (the bench drivers' machine-readable output) --- *)

let cache_to_json (c : cache_stats) =
  Telemetry.Json.(
    Obj
      [
        ("config", Str (Icache.config_name c.config));
        ("size_kb", Int (c.config.Icache.size_bytes / 1024));
        ("assoc", Int c.config.Icache.assoc);
        ("context_switches", Bool c.config.Icache.context_switches);
        ("miss_ratio", Fixed (6, c.miss_ratio));
        ("fetch_cost", Int c.fetch_cost);
      ])

let to_json m =
  Telemetry.Json.(
    Obj
      [
        ("program", Str m.program);
        ("level", Str (Opt.Driver.level_name m.level));
        ("machine", Str m.machine.Ir.Machine.short);
        ("static_instrs", Int m.static_instrs);
        ("static_ujumps", Int m.static_ujumps);
        ("static_nops", Int m.static_nops);
        ("code_bytes", Int m.code_bytes);
        ("dyn_instrs", Int m.dyn_instrs);
        ("dyn_ujumps", Int m.dyn_ujumps);
        ("dyn_nops", Int m.dyn_nops);
        ("dyn_transfers", Int m.dyn_transfers);
        ("instrs_between_branches", Fixed (3, instrs_between_branches m));
        ("output_ok", Bool m.output_ok);
        ("timed_out", Bool m.timed_out);
        ("caches", Arr (List.map cache_to_json m.caches));
      ])
