(** Threaded-code execution engine with EASE-style measurement.

    Executes assembled code ({!Asm.t}), counting every instruction the
    generated code executes by class — the equivalent of the paper's
    EASE instrumentation.  Library routines ([getchar]/[putchar]/[exit])
    run natively and are excluded from the counts, matching the paper
    ("Library routines could not be measured").  On the RISC model the
    delay slot of a transfer is executed after the transfer's decision
    and before control moves, for taken and untaken branches alike.

    Compiles each pre-decoded function ({!Interp.Decoded}) into OCaml
    closure chains — one handler per position control enters at — with
    superblock fusion: a straight-line run of simple instructions and
    its terminating transfer become a single handler that settles the
    run's bookkeeping in bulk and executes precompiled effect closures
    back to back, and a compare feeding the terminating conditional
    branch folds into the transfer itself.  The hot instruction shapes
    (register moves, ALU ops on registers and immediates, [reg + disp]
    loads and stores, register compares) compile to one closure each
    that computes with the same {!Ir.Arith} and {!Image} functions as
    the generic composition of operand closures every other shape uses.

    Fusion is unobservable: the [on_fetch] stream is per-instruction and
    in order (exact prefixes on faults and timeouts), a [~bank]'s
    statistics are those of that stream, heartbeats carry
    exact instruction counts, and the step budget runs out at the exact
    instruction.  The test suite holds the engine to a re-resolving
    reference loop ([test/interp_oracle.ml]) over the full benchmark
    matrix.  The one latitude taken: an attached {!Telemetry.Budget}
    may be polled once per superblock rather than exactly every 2048
    instructions — cancellation latency only, never a measured value. *)

(** [run asm prog] loads [prog]'s data and executes from [main].

    [on_fetch] is called once per executed instruction (delay slots
    included) with its code address and size, in execution order, and
    on a fault or timeout its calls are the exact prefix.  A squashed
    annulled slot is fetched but not executed: it reaches [on_fetch]
    without entering the counts.

    [bank] is fed the same fetches a superblock at a time: each
    superblock execution hands it one fixed slice (the straight-line
    prefix, a fused compare, the terminator and its delay slot, fetched
    whether it runs or is squashed) through
    {!Icache.Bank.access_block}, which settles a slice in O(1) when it
    last ran with every fetch a hit and the bank has evicted nothing
    since.  A completed or
    timed-out run leaves every bank statistic equal to feeding each
    [on_fetch] call to {!Icache.Bank.access}: a superblock whose
    remaining steps do not cover its slice, and the rest of the run
    after it, are fed per fetch.  A faulting run (or one a [budget]
    cancels) yields no result, so what it fed the bank is not
    specified.  At most one of [on_fetch] and [bank] may be given
    ([Invalid_argument] otherwise).

    With [log], a [Sim_progress] heartbeat is emitted every
    {!Interp.progress_interval} executed instructions.

    With [budget], the budget's fuel axis caps [max_steps], and a passed
    wall-clock deadline raises {!Telemetry.Budget.Exhausted} out of the
    run — how the {!Harness.Pool} supervisor's in-process path enforces
    a deadline.

    @raise Interp.Runtime_error on faults.  Step-budget exhaustion is
    {e not} a fault: the result comes back with partial output and
    [timed_out = true]. *)
val run :
  ?max_steps:int ->
  ?input:string ->
  ?on_fetch:(addr:int -> size:int -> unit) ->
  ?bank:Icache.Bank.t ->
  ?log:Telemetry.Log.t ->
  ?budget:Telemetry.Budget.t ->
  Asm.t ->
  Flow.Prog.t ->
  Interp.result

(** This process's compile-cache [(hits, misses)] since it started.
    Like {!Interp.decode_cache_counters}, never part of a sweep's log. *)
val compile_cache_counters : unit -> int * int

(** The execution engine a measurement ran on, recorded as provenance
    in campaign keys and sweep documents.  There is one. *)
type kind = Threaded

val kind_name : kind -> string
