(** The one sweep function: every (benchmark, level, machine)
    measurement of a task list, optionally against a result {!Store}.

    With a store, each task is keyed ({!Key.measure}) and, with
    [resume], committed entries are resolved first so only the delta is
    computed.  Each computed task is one [measure] request on
    {!Harness.Pool.run}, answered in-process or by worker processes
    running {!handle}, and its result is committed before the reply: a
    sweep SIGKILLed at any point leaves only complete entries behind.

    Byte-stability: a row is the *rendered* result
    ([Harness.Measure.to_json]), spliced back verbatim from the reply or
    the store, in task order, and counter sums commute — so a resumed,
    sharded or chaos-ridden sweep produces a [BENCH_results.json]
    byte-identical to a cold in-process one. *)

type row = {
  r_program : string;
  r_level : string;  (** level name, e.g. ["JUMPS"] *)
  r_machine : string;  (** machine short name *)
  r_row : string;  (** the verbatim [BENCH_results.json] row *)
  r_output_ok : bool;
  r_timed_out : bool;
  r_counters : (string * int) list;  (** this measurement's deltas *)
  r_cached : bool;  (** resolved from the store, not computed *)
}

(** A task that produced no measurement: every attempt crashed
    ([f_kind = "crashed"]) or hit the deadline ([f_kind = "timed-out"]). *)
type failure = {
  f_program : string;
  f_level : Opt.Driver.level;
  f_machine : string;
  f_kind : string;
  f_detail : string;  (** exception text or deadline description *)
  f_attempts : int;
  f_elapsed : float;  (** last attempt's elapsed seconds (0 for crashes) *)
}

(** One JSON object (no newline) for a ["failures"] array entry. *)
val failure_to_json : failure -> string

type summary = {
  total : int;
  hits : int;  (** tasks resolved from the store *)
  computed : int;  (** tasks measured this run *)
  corrupt : int;  (** corrupted entries recomputed *)
  failures : failure list;  (** tasks with no result after every retry *)
  diags : Telemetry.Diag.t list;  (** [store-corrupt] diagnostics *)
  pool : Harness.Pool.stats;  (** chaos, retries, kills and respawns *)
}

(** The [measure] op: measure the requested task (under [budget] when
    in-process), commit the result to [store] when given, and reply with
    the store entry plus the task's metrics registry and, when the
    request asks, its profile.  A bad request or a failed measurement
    raises. *)
val handle : ?store:Store.t -> ?budget:Telemetry.Budget.t -> string -> string

(** [handle ~store] as a {!Shard.serve} handler. *)
val worker_handler : Store.t -> string -> string option

(** Run a sweep.  [resume] (default false) resolves [store]'s committed
    entries before dispatch; without it the store is (re)populated but
    never read.  [workers = 0] (the default) computes in-process;
    [workers > 0] runs that many worker processes from [worker_argv] (a
    command serving the [measure] op, e.g. [jumprepc worker --store
    DIR]).  [deadline], [retries] (default 2), [chaos] and [trace] are
    {!Harness.Pool.run}'s.

    Replies are folded in task order: cached rows replay their stored
    counters into [log]'s registry, computed rows merge the task's whole
    registry and, into an enabled [profiler], its profile — so counters,
    the [measure.run_instrs] histogram and the profiler rows equal an
    in-process sweep's.  Per-task log events are not forwarded. *)
val sweep :
  ?store:Store.t ->
  ?resume:bool ->
  ?workers:int ->
  ?worker_argv:string array ->
  ?deadline:float ->
  ?retries:int ->
  ?chaos:Harness.Pool.chaos ->
  ?engine:Sim.Engine.kind ->
  ?log:Telemetry.Log.t ->
  ?profiler:Telemetry.Profiler.t ->
  ?trace:Telemetry.Trace.t ->
  (Programs.Suite.benchmark * Opt.Driver.level * Ir.Machine.t) list ->
  row list * summary
