(** Measurement harness: compile a benchmark at a given optimization level
    for a machine, execute it, and collect every statistic the paper's
    tables need (EASE-style counts plus the eight cache configurations). *)

type cache_stats = {
  config : Icache.config;
  miss_ratio : float;
  fetch_cost : int;
}

type t = {
  program : string;  (** benchmark name *)
  level : Opt.Driver.level;
  machine : Ir.Machine.t;
  static_instrs : int;
  static_ujumps : int;  (** unconditional jumps incl. indirect *)
  static_nops : int;
  code_bytes : int;
      (** total code bytes (alignment padding excluded); on CISC this
          reflects the branch-displacement plans *)
  dyn_instrs : int;
  dyn_ujumps : int;
  dyn_nops : int;
  dyn_transfers : int;  (** executed branch points *)
  output : string;  (** what the program printed *)
  output_ok : bool;
      (** output matched the gcc-verified expectation (always false on a
          timeout: the comparison is meaningless for a hung run) *)
  timed_out : bool;  (** the interpreter exhausted its step budget *)
  caches : cache_stats list;
}

(** Instructions executed between branch points (paper §5.2). *)
val instrs_between_branches : t -> float

(** Compile, assemble, run (with all eight paper cache configs attached)
    and measure one benchmark on {!Sim.Engine.run}.  Results are
    memoized per (program, source digest, level, machine), for the
    default options only: a call with [opts] bypasses the memo and
    measures afresh.  The ablations and [jumprepc bench --verify-passes]
    depend on that, since the memo key does not carry their options.

    With [log], the compilation is pass-spanned ({!Opt.Driver.optimize}),
    the run emits progress heartbeats, and any output mismatch emits a
    [Warning] event (and is recorded for {!mismatches}).
    With [profiler], each optimization pass is charged to its
    (function x pass) row; the run itself is never timed, so a profiled
    run fetches through the same hook as an unprofiled one.  [verify]
    (default true) controls the output comparison; ad-hoc sources
    without a known-good output pass [~verify:false] through
    {!run_adhoc}.

    Concurrency: parallel sweeps run in worker processes
    ({!Harness.Pool}), each with its own memo and mismatch/timeout
    records; within one process those are lock-guarded. *)
val run :
  ?opts:Opt.Driver.options ->
  ?log:Telemetry.Log.t ->
  ?profiler:Telemetry.Profiler.t ->
  ?verify:bool ->
  Programs.Suite.benchmark ->
  Opt.Driver.level ->
  Ir.Machine.t ->
  t

(** The side-effect-free core of {!run}: compile, assemble, execute —
    but no memo and no mismatch/timeout recording.  This is what a
    sweep's handler runs ([Campaign.Runner.sweep], in-process or in a
    worker process); the sweep's counters are sums over the rows it
    returns ([Report.counters]).  [budget] is threaded into the
    interpreter (its fuel accounting is the poll point): an expired
    budget raises {!Telemetry.Budget.Exhausted} out of the run rather
    than returning a silently different measurement. *)
val measure_raw :
  ?opts:Opt.Driver.options ->
  ?log:Telemetry.Log.t ->
  ?profiler:Telemetry.Profiler.t ->
  ?verify:bool ->
  ?budget:Telemetry.Budget.t ->
  Programs.Suite.benchmark ->
  Opt.Driver.level ->
  Ir.Machine.t ->
  t

(** Measure a source file that is not part of the bundled suite.  Without
    [expected_output] the run is unverified: [output_ok] is forced true and
    the caller compares outputs across levels instead. *)
val run_adhoc :
  ?opts:Opt.Driver.options ->
  ?log:Telemetry.Log.t ->
  name:string ->
  source:string ->
  ?input:string ->
  ?expected_output:string ->
  Opt.Driver.level ->
  Ir.Machine.t ->
  t

(** Clear the memo table (after changing options between sweeps). *)
val reset_cache : unit -> unit

(** {!run} over every benchmark in the suite, in suite order — the
    sequential sweep behind bench's paper tables.  Concurrent and
    store-backed sweeps are [Campaign.Runner.sweep]. *)
val run_suite :
  ?log:Telemetry.Log.t ->
  ?profiler:Telemetry.Profiler.t ->
  Opt.Driver.level ->
  Ir.Machine.t ->
  t list

(** Every (program, level, machine-short) whose output failed verification
    in this process, in discovery order — the bench drivers exit nonzero
    when this is non-empty. *)
val mismatches : unit -> (string * Opt.Driver.level * string) list

(** Every run that exhausted its step budget, in discovery order.  Kept
    apart from {!mismatches}: a hang is a distinct verdict, counted under
    the [measure.timeouts] telemetry counter. *)
val timeouts : unit -> (string * Opt.Driver.level * string) list

(** Every field of [t] as a JSON object, cache stats included — a row of
    [BENCH_results.json], which [Report.doc_of_json] reads. *)
val to_json : t -> Telemetry.Json.t
