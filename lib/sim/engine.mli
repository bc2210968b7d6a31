(** Threaded-code execution engine.

    Compiles each pre-decoded function ({!Interp.Decoded}) into OCaml
    closure chains — one handler per instruction position — with
    superblock fusion: a straight-line run of simple instructions and
    its terminating transfer become a single handler that settles the
    run's bookkeeping in bulk and executes precompiled effect closures
    back to back, and a compare feeding the terminating conditional
    branch folds into the transfer itself.

    Observably equivalent to {!Interp.run_reference}: identical
    results and counts, identical [on_fetch] streams (per-instruction,
    in order, exact prefixes on faults and timeouts), identical
    [Sim_progress] heartbeats, and step-budget exhaustion at the exact
    instruction.  The equivalence tests hold it to this over the full
    benchmark matrix.  The one latitude taken: an
    attached {!Telemetry.Budget} may be polled once per superblock
    rather than exactly every 2048 instructions — cancellation latency
    only, never a measured value. *)

(** [run asm prog] loads [prog]'s data and executes from [main].  Same
    signature and semantics as {!Interp.run_reference}: [on_fetch] sees
    every executed instruction (delay slots included), [log] gets
    [Sim_progress] heartbeats, [budget] caps [max_steps] and may raise
    {!Telemetry.Budget.Exhausted}, faults raise {!Interp.Runtime_error},
    and step-budget exhaustion returns a partial result with
    [timed_out = true]. *)
val run :
  ?max_steps:int ->
  ?input:string ->
  ?on_fetch:(addr:int -> size:int -> unit) ->
  ?log:Telemetry.Log.t ->
  ?budget:Telemetry.Budget.t ->
  Asm.t ->
  Flow.Prog.t ->
  Interp.result

(** A compiled program: one closure array per decoded function. *)
type program

(** Compile a decode.  Exposed for the compile micro-benchmark; {!run}
    goes through the per-domain compile cache. *)
val compile : Interp.Decoded.t -> program

(** This domain's compile-cache [(hits, misses)] since it started.
    Like {!Interp.decode_cache_counters}, never part of a sweep's log. *)
val compile_cache_counters : unit -> int * int

(** Add this domain's compile-cache tallies into [metrics] as
    [sim.engine_cache.hits]/[sim.engine_cache.misses]. *)
val publish_cache_metrics : Telemetry.Metrics.t -> unit

(** Which execution engine runs measured programs. *)
type kind =
  | Threaded  (** this module: closure chains with superblock fusion *)
  | Reference  (** {!Interp.run_reference}: the re-resolving oracle *)

val kind_name : kind -> string
val kind_of_string : string -> kind option
val all_kinds : kind list

(** The run function for a kind; both share one signature. *)
val select :
  kind ->
  ?max_steps:int ->
  ?input:string ->
  ?on_fetch:(addr:int -> size:int -> unit) ->
  ?log:Telemetry.Log.t ->
  ?budget:Telemetry.Budget.t ->
  Asm.t ->
  Flow.Prog.t ->
  Interp.result
