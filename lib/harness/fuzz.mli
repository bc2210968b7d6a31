(** Differential fuzzing with automatic delta reduction ([jumprepc fuzz]).

    Each seed deterministically generates one C-subset program
    ({!Gen.generate}), compiles and runs it under every (level x machine)
    configuration, and compares observable behaviour (output bytes and
    exit code) against the SIMPLE/cisc reference.  Any divergence — a
    mismatch, a simulator fault, step-limit exhaustion, a quarantined
    pass, or a compile error — is a failure; the harness then shrinks the
    program ({!Gen.shrink}), re-checking the same failure kind at every
    step, and writes the minimal reproducer to [<out_dir>/seed-<n>.c]. *)

type kind = Mismatch | Fault | Timeout | Quarantine | Compile_error

val kind_name : kind -> string

type failure = {
  kind : kind;
  config : string;  (** "LEVEL/machine" where the failure showed *)
  detail : string;
}

(** Run one source through all configurations.  [inject_fault] (test-only)
    corrupts the named pass's output to force the quarantine path;
    [verify] enables the expensive per-pass checks. *)
val check :
  ?max_steps:int ->
  ?verify:bool ->
  ?inject_fault:string ->
  string ->
  failure option

(** [reduce ~check p f] greedily shrinks [p] while [check] keeps
    reproducing a failure of [f]'s kind; stops at a local minimum or
    after [max_attempts] candidate evaluations (default 500).  Returns
    the smallest failing program and the failure it exhibits. *)
val reduce :
  ?max_attempts:int ->
  check:(string -> failure option) ->
  Gen.program ->
  failure ->
  Gen.program * failure

(** The [fuzz] op's request for one seed (a JSON object with
    ["op":"fuzz"]). *)
val request :
  max_steps:int -> verify:bool -> inject_fault:string option -> int -> string

(** The [fuzz] op: generate the request's seed, check it and, on a
    failure, reduce it.  The reply carries the original and the reduced
    failure and the reproducer's full text ([{}] for a clean seed).
    What [jumprepc worker] runs for a fuzz request, and what an
    in-process campaign calls directly. *)
val handle : string -> string

type stats = {
  seeds_run : int;
  failures : (int * failure * string) list;
      (** seed, reduced failure, path of the written reproducer *)
  aborted : (int * string) list;
      (** seeds whose task produced no verdict at all (the worker
          crashed or timed out — only possible under chaos) *)
  pool : Pool.stats;  (** supervisor statistics *)
}

(** Fuzz seeds [start .. start + seeds - 1]; on failure, reduce and write
    the reproducer under [out_dir] (created if missing).  [on_seed] is
    called for each seed with its outcome, in seed order, as soon as
    that seed and every earlier one are done; its reproducer is written
    at the same moment.

    Each seed is one {!handle} request on {!Pool.run}: in-process by
    default, or on [workers] worker processes spawned from
    [worker_argv] (a command serving the [fuzz] op, e.g. [jumprepc
    worker]).  Reproducer files, the failure list and the [on_seed]
    calls are issued by this process in seed order, so the campaign's
    results are identical at any worker count.  [chaos] injects
    deterministic worker faults ({!Pool.chaos}) to drill the supervisor;
    affected seeds land in [aborted], sibling seeds keep their verdicts.
    [seed_list] overrides the contiguous range with an explicit seed set
    — how a store-resumed campaign runs only the uncached delta. *)
val campaign :
  ?max_steps:int ->
  ?verify:bool ->
  ?inject_fault:string ->
  ?out_dir:string ->
  ?start:int ->
  ?on_seed:(int -> failure option -> unit) ->
  ?workers:int ->
  ?worker_argv:string array ->
  ?chaos:Pool.chaos ->
  ?seed_list:int list ->
  seeds:int ->
  unit ->
  stats
