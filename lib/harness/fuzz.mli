(** Differential fuzzing with automatic delta reduction ([jumprepc fuzz]).

    Each seed deterministically generates one C-subset program
    ({!Gen.generate}), compiles and runs it under every (level x machine)
    configuration, and compares observable behaviour (output bytes and
    exit code) against the SIMPLE/cisc reference.  Any divergence — a
    mismatch, a simulator fault, step-limit exhaustion, a quarantined
    pass, or a compile error — is a failure; the harness then shrinks the
    program ({!Gen.shrink}), re-checking the same failure kind at every
    step.  Campaigns over many seeds, with their reproducer files and
    store entries, are [Campaign.Runner.fuzz]. *)

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

(** [run_seed n] generates seed [n]'s program ({!Gen.generate}) and
    {!check}s it; on a failure it {!reduce}s the program.  Returns the
    original failure, the reduced one and the reproducer's full text (a
    header comment naming the seed and the reduced failure, then the
    reduced program), or [None] for a clean seed.  Pure in its
    arguments, so a seed's verdict is the same wherever it runs. *)
val run_seed :
  ?max_steps:int ->
  ?verify:bool ->
  ?inject_fault:string ->
  int ->
  (failure * failure * string) option
