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
    and measure one benchmark.  Results are memoized per
    (program, source digest, level, machine).

    With [log], the compilation is pass-spanned ({!Opt.Driver.optimize}),
    the run emits progress heartbeats, the [measure.*] telemetry counters
    (and the [measure.run_instrs] histogram) accumulate, and any output
    mismatch emits a [Warning] event (and is recorded for {!mismatches}).
    With [profiler], each optimization pass is charged to its
    (function x pass) row, and the run's interpreter fuel, interpreter
    wall time and cache-bank time land in a ["program/LEVEL/machine"]
    run row.  [verify] (default true) controls the output comparison;
    ad-hoc sources without a known-good output pass [~verify:false]
    through {!run_adhoc}.  [budget] is threaded into the interpreter
    (its fuel accounting is the poll point): a cancelled or expired
    budget raises {!Telemetry.Budget.Exhausted} out of the run rather
    than returning a silently different measurement.

    [engine] selects the execution engine: {!Sim.Engine.Threaded} (the
    default) or the {!Sim.Engine.Reference} oracle.  The two are
    observationally equivalent, so the choice never changes a
    measurement — only how fast it is computed — and the memo is
    engine-agnostic.

    Thread-safety: the memo and the mismatch/timeout records are
    lock-guarded, so the daemon's resident workers may call the
    measurement entry points concurrently. *)
val run :
  ?opts:Opt.Driver.options ->
  ?log:Telemetry.Log.t ->
  ?profiler:Telemetry.Profiler.t ->
  ?verify:bool ->
  ?budget:Telemetry.Budget.t ->
  ?engine:Sim.Engine.kind ->
  Programs.Suite.benchmark ->
  Opt.Driver.level ->
  Ir.Machine.t ->
  t

(** The side-effect-free core of {!run}: compile, assemble, execute,
    bump the [measure.*] counters on [log] — but no memo and no
    mismatch/timeout recording.  This is what pool worker domains and
    campaign worker processes run against a private in-memory log whose
    counters are folded back (or stored) by the parent. *)
val measure_raw :
  ?opts:Opt.Driver.options ->
  ?log:Telemetry.Log.t ->
  ?profiler:Telemetry.Profiler.t ->
  ?verify:bool ->
  ?budget:Telemetry.Budget.t ->
  ?engine:Sim.Engine.kind ->
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
  ?budget:Telemetry.Budget.t ->
  ?engine:Sim.Engine.kind ->
  name:string ->
  source:string ->
  ?input:string ->
  ?expected_output:string ->
  Opt.Driver.level ->
  Ir.Machine.t ->
  t

(** Clear the memo table (after changing options between sweeps). *)
val reset_cache : unit -> unit

(** [run] over an arbitrary task list, optionally on a supervised {!Pool}
    of [jobs] domains (default 1 = the plain sequential sweep).  Memoized
    results are resolved before dispatch; workers measure against
    private in-memory logs that are folded into [log] in task order
    after the joins, so results, counters, event stream and recorded
    mismatches/timeouts are identical to the sequential run at any
    [jobs].

    [deadline], [retries] and [chaos] select the supervised path (see
    {!Pool.supervise}): each task gets a per-attempt wall-clock budget
    threaded into the interpreter, crashes and hangs are retried on a
    deterministic backoff, and a task whose every attempt fails is
    dropped from the result list and recorded under {!task_failures} —
    sibling results are never lost.  Completed measurements are identical
    to the sequential, supervision-free sweep.

    [profiler] accumulates the per-pass and per-run attribution: workers
    profile into private shards that are folded back in task order, so
    the aggregate matches a sequential profiled sweep.  [trace] records
    every attempt as a worker-lane span and supervisor decisions as
    instants (see {!Pool.supervise}); a non-[None] [trace] routes even a
    [jobs = 1] sweep through the supervised pool so spans are recorded.
    [metrics] (typically a registry owned by the bench driver, distinct
    from [log]'s) receives the supervisor tallies as [pool.*] counters
    on the supervised path. *)
val run_many :
  ?log:Telemetry.Log.t ->
  ?profiler:Telemetry.Profiler.t ->
  ?trace:Telemetry.Trace.t ->
  ?metrics:Telemetry.Metrics.t ->
  ?jobs:int ->
  ?deadline:float ->
  ?retries:int ->
  ?chaos:Pool.chaos ->
  ?engine:Sim.Engine.kind ->
  (Programs.Suite.benchmark * Opt.Driver.level * Ir.Machine.t) list ->
  t list

(** [run] over every benchmark in the suite. *)
val run_suite :
  ?log:Telemetry.Log.t ->
  ?profiler:Telemetry.Profiler.t ->
  ?trace:Telemetry.Trace.t ->
  ?metrics:Telemetry.Metrics.t ->
  ?jobs:int ->
  ?deadline:float ->
  ?retries:int ->
  ?chaos:Pool.chaos ->
  ?engine:Sim.Engine.kind ->
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

(** A supervised task that produced no measurement: every attempt crashed
    ([f_kind = "crashed"]) or hit the deadline ([f_kind = "timed-out"]). *)
type task_failure = {
  f_program : string;
  f_level : Opt.Driver.level;
  f_machine : string;
  f_kind : string;
  f_detail : string;  (** exception text or deadline description *)
  f_attempts : int;
  f_elapsed : float;  (** last attempt's elapsed seconds (0 for crashes) *)
}

(** Failed supervised tasks this process, in discovery order.  Empty
    whenever chaos is off and no deadline expired — the bench JSON only
    grows a ["failures"] array when this is non-empty. *)
val task_failures : unit -> task_failure list

(** One JSON object (no newline) for a ["failures"] array entry. *)
val failure_to_json : task_failure -> string

(** Supervisor statistics of the most recent supervised {!run_many}. *)
val pool_stats : unit -> Pool.stats

(** One JSON object (no newline) with every field of [t], cache stats
    included — the building block of the bench drivers' [BENCH_*.json]. *)
val to_json : t -> string
