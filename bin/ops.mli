(** The operations behind jumprepc's compile, measure, certify and
    explain subcommands.  Each returns its result, and builds its
    [--json]/[--stats-json] payload, as a value; a failure comes back
    typed rather than as an exit, so the subcommands only print. *)

(** A failed operation: the typed diagnostic plus the exit code the CLI
    dies with (1 front-end/pipeline failure, 2 runtime error, 124
    budget). *)
type failure = { diag : Telemetry.Diag.t; exit_code : int }

(** The CLI's option set: [verify] and [inject_fault] off by default,
    [budget] the degrade budget threaded into the replication passes. *)
val make_opts :
  ?verify:bool ->
  ?inject_fault:string ->
  ?budget:Telemetry.Budget.t ->
  Opt.Driver.level ->
  Opt.Driver.options

(** Compile a source string, mapping front-end exceptions
    (lexer/parser/codegen) and pipeline {!Telemetry.Diag.Error} to
    [failure]s whose messages carry a [path:line] position — the exact
    diagnostics the CLI prints. *)
val compile_source :
  ?log:Telemetry.Log.t ->
  ?diags:Telemetry.Diag.t list ref ->
  ?verdicts:Tv.record list ref ->
  Opt.Driver.options ->
  Ir.Machine.t ->
  path:string ->
  string ->
  (Flow.Prog.t, failure) result

(** The [compile --stats-json] object for an optimized program. *)
val compile_stats :
  level:Opt.Driver.level -> machine:Ir.Machine.t -> Flow.Prog.t -> Telemetry.Json.t

(** The three-level comparison: a SIMPLE reference row, then LOOPS and
    JUMPS verified against its output.  A simulated-program fault is a
    [failure] with [exit_code = 2]. *)
val measure_rows :
  ?log:Telemetry.Log.t ->
  ?verify:bool ->
  path:string ->
  name:string ->
  source:string ->
  input:string ->
  Ir.Machine.t ->
  (Harness.Measure.t list, failure) result

(** The [measure --stats-json] array for the rows. *)
val measure_json : Harness.Measure.t list -> Telemetry.Json.t

(** Compile under [options.certify] and collect the static certifier's
    per-pass verdicts (chronological) alongside the pipeline diagnostics
    they produced.  [inject_fault] passes a PASS[:MODE] corruption spec
    through, so a deliberately broken pass shows up as a refutation. *)
val certify_report :
  ?inject_fault:string ->
  level:Opt.Driver.level ->
  machine:Ir.Machine.t ->
  path:string ->
  string ->
  (Tv.record list * Telemetry.Diag.t list, failure) result

(** (certified, unknown, refuted) counts over a verdict list. *)
val certify_summary : Tv.record list -> int * int * int

(** The [certify --json] object for one target: the verdict list (each
    with its reason and, for refutations, the counterexample path) and
    the summary counts. *)
val certify_json :
  target:string ->
  level:Opt.Driver.level ->
  machine:Ir.Machine.t ->
  Tv.record list ->
  Telemetry.Json.t

(** Compile with an in-memory event log: the optimized program plus the
    events the explain report audits. *)
val explain_report :
  level:Opt.Driver.level ->
  machine:Ir.Machine.t ->
  path:string ->
  string ->
  (Flow.Prog.t * Telemetry.Log.event list, failure) result

(** The conditional branches of a compiled function that
    {!Opt.Constfold.decidable_branches} finds decided, as [const-branch]
    warnings from pass ["explain"]: ["L6: branch to L4 is never taken"]. *)
val decidable_branches : Flow.Func.t -> Telemetry.Diag.t list

(** The [explain --json] array: per function, the replication count, the
    remaining jumps and the decidable branches, both as diagnostic
    objects. *)
val explain_json :
  Flow.Prog.t -> Telemetry.Log.event list -> Telemetry.Json.t
