(** RTL interpreter with EASE-style measurement.

    Executes assembled code ({!Asm.t}), counting every instruction the
    generated code executes by class — the equivalent of the paper's EASE
    instrumentation.  Library routines ([getchar]/[putchar]/[exit]) run
    natively and are excluded from the counts, matching the paper
    ("Library routines could not be measured").

    On the RISC model the delay slot of a transfer is executed after the
    transfer's decision and before control moves, for taken and untaken
    branches alike.

    This module holds the result types every engine shares, the decode
    stage {!Engine} compiles from, and {!run_reference}, the semantic
    oracle.  Measured runs go through {!Engine.run}. *)

type counts = {
  mutable total : int;  (** all instructions executed *)
  mutable cond_branches : int;
  mutable jumps : int;  (** unconditional [Jump] *)
  mutable ijumps : int;  (** indirect jumps *)
  mutable calls : int;
  mutable rets : int;
  mutable nops : int;
  mutable loads : int;  (** instructions reading memory *)
  mutable stores : int;  (** instructions writing memory *)
}

(** Executed unconditional jumps: [jumps + ijumps]. *)
val uncond_jumps : counts -> int

(** Executed transfers of control (branch points):
    conditional branches + jumps + indirect jumps + calls + returns. *)
val transfers : counts -> int

type result = {
  output : string;
  exit_code : int;  (** 124 when [timed_out] *)
  counts : counts;
  timed_out : bool;
      (** the [max_steps] budget ran out before the program exited — a
          distinct outcome (not a {!Runtime_error}) so differential testing
          can tell divergence from miscompilation *)
}

exception Runtime_error of string

(** [run_reference asm prog] loads [prog]'s data and executes from
    [main] with the straightforward interpretation loop: it re-resolves
    labels, symbols, virtual registers and call targets on every step.
    Kept as the semantic oracle — the test suite runs the whole
    benchmark matrix through it and {!Engine.run} and demands identical
    results.

    [on_fetch] is called once per executed instruction (delay slots
    included) with its code address and size — feed this to cache
    simulators.

    With [log], the fetch loop emits a [Sim_progress] heartbeat every
    {!progress_interval} executed instructions.

    With [budget], the fetch loop polls the budget every
    [budget_interval_mask + 1] executed instructions: the budget's fuel
    axis caps [max_steps], and a passed wall-clock deadline raises
    {!Telemetry.Budget.Exhausted} out of the run — how the
    {!Harness.Pool} supervisor's in-process path enforces a deadline.

    @raise Runtime_error on faults (null/of-range access, division by zero,
    jump-table index out of bounds, missing function).  Step-budget
    exhaustion is {e not} a fault: the result comes back with partial
    output and [timed_out = true]. *)
val run_reference :
  ?max_steps:int ->
  ?input:string ->
  ?on_fetch:(addr:int -> size:int -> unit) ->
  ?log:Telemetry.Log.t ->
  ?budget:Telemetry.Budget.t ->
  Asm.t ->
  Flow.Prog.t ->
  result

(** The pre-decoding pass behind {!Engine.run}: each function flattened to a
    dense instruction array with transfer targets as indices, symbols as
    addresses, calls as function indices or builtin tags, and virtual
    registers as slots of a dense per-frame array.  The representation
    is public: {!Engine} compiles it into closure chains, and the
    decode micro-benchmark drives {!Decoded.decode} directly. *)
module Decoded : sig
  type dreg = P of int | V of int | CC

  type daddr =
    | DBased of dreg * int
    | DIndexed of dreg * dreg * int * int
    | DAbs of int  (** symbol resolved at decode time *)
    | DAbsBad of string  (** unknown symbol; faults when dereferenced *)

  type dopnd = DReg of dreg | DImm of int | DMem of Ir.Rtl.width * daddr
  type dloc = DLreg of dreg | DLmem of Ir.Rtl.width * daddr
  type builtin = Getchar | Putchar | Exit

  (** Transfer targets [>= 0] are instruction indices; [< 0] index the
      function's fault table as [-t - 1]. *)
  type dinstr =
    | DMove of dloc * dopnd
    | DLea of dreg * daddr
    | DBinop of Ir.Rtl.binop * dloc * dopnd * dopnd
    | DUnop of Ir.Rtl.unop * dloc * dopnd
    | DCmp of dopnd * dopnd
    | DEnter of int
    | DLeave
    | DNop
    | DBranch of Ir.Rtl.cond * int
    | DJump of int
    | DIjump of dreg * int array
    | DCallF of int  (** index into [dfuncs] *)
    | DCallB of builtin
    | DCallU of string  (** undefined function; faults when executed *)
    | DRet

  type dfunc = {
    dname : string;
    dcode : dinstr array;
    rw : int array;  (** bit 0: reads memory, bit 1: writes memory *)
    daddrs : int array;
    dsizes : int array;
    dannulled : bool array;
    faults : string array;
    nvirt : int;  (** dense frame size: 1 + highest virtual register *)
  }

  type t = {
    delay_slots : bool;
    dfuncs : dfunc array;
    findex : (string, int) Hashtbl.t;
  }

  val is_transfer : dinstr -> bool
  val decode : Asm.t -> Flow.Prog.t -> t
end

(** Decode through the process-wide LRU (capacity 8, keyed by the physical
    identity of the [asm]/[prog] pair).  [symbol] resolves data symbols
    to addresses and is consulted only on a miss — sound because image
    layout is a pure function of the program, so every run of the same
    pair would decode identically.  {!Engine.run} decodes through it,
    so repeated runs of one program decode once. *)
val decode_cached :
  symbol:(string -> int option) -> Asm.t -> Flow.Prog.t -> Decoded.t

(** This process's decode-cache [(hits, misses)] since it started.
    Deliberately kept out of run logs: at [-j > 1] the split across
    worker processes depends on scheduling, and sweep counter objects
    must not. *)
val decode_cache_counters : unit -> int * int

(** Add this process's decode-cache tallies into [metrics] as
    [sim.decode_cache.hits]/[sim.decode_cache.misses]. *)
val publish_cache_metrics : Telemetry.Metrics.t -> unit

(** One [Sim_progress] heartbeat per this many executed instructions
    (with a log attached). *)
val progress_interval : int

(** An attached budget is polled when [total land mask = 0] — every
    [mask + 1] executed instructions. *)
val budget_interval_mask : int
