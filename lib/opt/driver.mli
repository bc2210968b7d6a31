(** The optimization driver: Figure 3 of the paper.

    Levels:
    - [Simple]: the standard optimizations only;
    - [Loops]: standard plus loop-condition replication ({!Replication.Loops_rep});
    - [Jumps]: standard plus generalized code replication ({!Replication.Jumps}).

    The pipeline is one table of pass rows in Figure 3's three stages (the
    prefix, the body of the do-while fix loop, the suffix); each row names
    its pass and declares the option enabling it, how the certifier treats
    it and its postcondition.

    Every pass runs inside a protective boundary: the {!Flow.Check}
    verifier inspects the pass's output (cheap structural checks always;
    [verify_passes] adds the expensive dominance-based checks and a
    differential execution oracle on small functions).  When a pass
    produces ill-formed IR, raises, or miscompiles, the function is rolled
    back to the pass's input, a [Pass_quarantined] telemetry event and a
    {!Telemetry.Diag.t} are recorded, the pass is skipped for the rest of
    that function's compilation, and the pipeline continues.  One broken
    pass on one function no longer aborts the build. *)

type level = Simple | Loops | Jumps

val level_name : level -> string
val level_of_string : string -> level option

type options = {
  level : level;
  heuristic : Replication.Jumps.heuristic;
  max_rtls : int option;  (** replication-sequence length cap (paper §6) *)
  allocate : bool;  (** run register allocation (on by default) *)
  max_iterations : int;  (** cap on the Figure-3 do-while loop *)
  enable_cse : bool;  (** EBB and global CSE (§3.3.2 cleanups) *)
  enable_licm : bool;  (** code motion (§3.3.3 preheader relocation) *)
  enable_strength : bool;  (** induction-variable strength reduction *)
  enable_isel : bool;  (** peephole combining (§3.3.2 instruction selection) *)
  verify_passes : bool;
      (** expensive per-pass verification: dominance-based def-before-use,
          program-level label uniqueness, and the differential execution
          oracle ({!Oracle}) on examples-sized functions *)
  certify : bool;
      (** static translation validation: after every changing pass, {!Tv}
          tries to prove the output simulates the input.  A refutation
          quarantines the pass and rolls the function back (like an oracle
          mismatch) with a [certify-refuted] diagnostic carrying the
          counterexample path; Unknown verdicts are warn-severity
          [uncertifiable-pass] / [certifier-timeout] diagnostics. *)
  inject_fault : string option;
      (** test-only: corrupt the named pass's output to exercise the
          detection paths end to end.  Spec syntax PASS[:MODE]; modes:
          [dangling-jump] (ill-formed IR, caught by the verifier — the
          default), [flip-branch] and [drop-store] (well-formed
          miscompilations, caught by the static certifier or the oracle) *)
  budget : Telemetry.Budget.t option;
      (** resource budget for the compilation: the replication passes poll
          its wall-clock deadline, and its growth axis caps
          how many RTLs replication may add (as a percent of the
          function's input size).  Exhaustion degrades the function to the
          next-cheaper level (JUMPS -> LOOPS -> SIMPLE) with a
          [Budget_exhausted] warning diagnostic instead of aborting;
          SIMPLE never consults the budget, so compilation always
          completes. *)
}

val default_options : options
val options : ?level:level -> unit -> options

(** How {!options.inject_fault} corrupts the named pass's output. *)
type fault_mode = Fault_dangling | Fault_flip_branch | Fault_drop_store

(** Parse a PASS[:MODE] fault spec.  Raises a [semantic-error]
    {!Telemetry.Diag.Error} naming the unknown pass (and listing the
    pipeline's passes) or the unknown mode. *)
val parse_fault : string -> string * fault_mode

(** Optimize one function for the machine.

    With [log], every pass runs under a telemetry span: a [Pass_begin] /
    [Pass_end] pair carrying the function's shape delta (RTLs, blocks,
    unconditional jumps before and after) and elapsed wall-clock time; each
    Figure-3 do-while round emits a [Fixpoint_iteration] event, and the
    replication and register-allocation passes report their per-decision
    events ({!Replication.Jumps.run}, {!Regalloc.run}).  The disabled
    (null) log costs one branch per pass.

    With [profiler], the same pass boundary charges each pass's wall time
    and GC allocation to its (function x pass) profiler row
    ({!Telemetry.Profiler.record_pass}), counting apart the presentations
    the fixpoint's no-change memo replayed and the runs that changed the
    function; log and profiler are independent
    — either may be enabled without the other, and the null profiler
    costs one branch per pass.

    [diags] collects {!Telemetry.Diag.t} records for quarantined passes,
    fixpoint divergence, and ill-formed input; callers that omit it still
    get the telemetry events.  [verdicts] collects the static certifier's
    per-pass {!Tv.record}s under [options.certify].  [oracle] supplies
    the differential execution oracle consulted after every changing
    pass. *)
val optimize_func :
  ?log:Telemetry.Log.t ->
  ?profiler:Telemetry.Profiler.t ->
  ?diags:Telemetry.Diag.t list ref ->
  ?verdicts:Tv.record list ref ->
  ?oracle:Oracle.t ->
  options ->
  Ir.Machine.t ->
  Flow.Func.t ->
  Flow.Func.t

(** Like {!optimize_func} but with the replication pass supplied by the
    caller — used by tests to instrument or cap replication, or to inject
    a deliberately broken pass against the quarantine machinery. *)
val optimize_func_with :
  ?log:Telemetry.Log.t ->
  ?profiler:Telemetry.Profiler.t ->
  ?diags:Telemetry.Diag.t list ref ->
  ?verdicts:Tv.record list ref ->
  ?oracle:Oracle.t ->
  replicate:
    (?allow_irreducible:bool -> Flow.Func.t -> Flow.Func.t * bool) ->
  options ->
  Ir.Machine.t ->
  Flow.Func.t ->
  Flow.Func.t

(** Optimize a whole program.  When [options.verify_passes] is set, an
    {!Oracle} is built from the unoptimized program and consulted after
    every changing pass, and program-level checks (global label
    uniqueness) run on the result. *)
val optimize :
  ?log:Telemetry.Log.t ->
  ?profiler:Telemetry.Profiler.t ->
  ?diags:Telemetry.Diag.t list ref ->
  ?verdicts:Tv.record list ref ->
  options ->
  Ir.Machine.t ->
  Flow.Prog.t ->
  Flow.Prog.t

(** Parse + compile + optimize C-subset source. *)
val compile :
  ?log:Telemetry.Log.t ->
  ?profiler:Telemetry.Profiler.t ->
  ?diags:Telemetry.Diag.t list ref ->
  ?verdicts:Tv.record list ref ->
  options ->
  Ir.Machine.t ->
  string ->
  Flow.Prog.t

(** A stable textual signature of the pass pipeline — a component of the
    campaign store's compiler fingerprint.  It is derived from the pass
    table the driver walks, so adding, removing or reordering a pass
    changes it and cached results keyed by an older pipeline are never
    reused. *)
val pipeline_signature : string
