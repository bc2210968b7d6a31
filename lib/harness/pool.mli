(** One executor: a supervisor over resident worker processes, plus the
    in-process path a one-worker batch takes.

    A unit of work is a request string answered by one handler on
    request strings.  A batch ({!run}) either calls that handler in this
    process or spawns worker processes from an argv, whose {!serve} loop
    calls the same handler, and supervises them until every request has
    settled.

    Fault discipline: a worker that dies mid-request is respawned and
    the attempt counts as crashed; a worker still busy at its request's
    deadline is SIGKILLed and respawned and the attempt counts as timed
    out; failed attempts retry on the deterministic {!backoff} schedule.
    Every request ends in a structured {!outcome}, and chaos injection
    is a pure function of (seed, request index, attempt), so a request
    that completes yields the same reply at any worker count. *)

(** [JUMPREP_JOBS] from the environment.  1 when unset; an unparsable or
    non-positive value warns on stderr and falls back to 1; a value over
    4x the core count ([Domain.recommended_domain_count ()]) warns and
    clamps to the core count. *)
val default_jobs : unit -> int

(** [clamp_jobs ~what n] — the shared worker-count clamp behind
    {!default_jobs}: a non-positive [n] warns (naming [what], default
    ["JUMPREP_JOBS"]) and falls back to 1; over 4x the core count warns
    and clamps to the core count.  [-j] counts go through the same
    clamp. *)
val clamp_jobs : ?what:string -> int -> int

(** [parse_jobs ~what s] — parse a job count string with the
    {!clamp_jobs} discipline; unparsable input warns and falls back
    to 1. *)
val parse_jobs : ?what:string -> string -> int

(** How one supervised task ended. *)
type 'a outcome =
  | Done of 'a
  | Crashed of { exn : exn; backtrace : string; attempts : int }
      (** every attempt raised; [exn]/[backtrace] are from the last *)
  | Timed_out of { elapsed : float; attempts : int }
      (** every attempt hit the deadline *)

(** ["done"], ["crashed"] or ["timed-out"]. *)
val outcome_kind : _ outcome -> string

(** What the supervisor saw over one {!run}.

    Determinism: the injected and retried counts derive from the pure
    chaos schedule, so they are identical at any worker count (asserted
    by the chaos-determinism test).  [respawned] is a scheduling artifact
    — the in-process path has no worker to lose — so it is excluded from
    that contract. *)
type stats = {
  injected_crashes : int;  (** chaos crashes injected *)
  injected_hangs : int;  (** chaos hangs injected *)
  injected_allocs : int;  (** chaos allocation storms injected *)
  retried : int;  (** failed attempts rescheduled *)
  respawned : int;  (** replacement worker processes spawned *)
  abandoned : int;  (** workers SIGKILLed at a request's deadline *)
}

(** Total chaos faults injected. *)
val injected : stats -> int

(** [backoff attempt] — seconds to wait before rescheduling after failed
    attempt number [attempt] (1-based): [base * 2^(attempt-1)] capped at
    [cap] (defaults 0.05s and 0.8s).  Pure; no randomized jitter, so
    retry schedules are reproducible. *)
val backoff : ?base:float -> ?cap:float -> int -> float

(** Deterministic fault injection: per attempt, a fault is drawn from a
    pure hash of ([chaos_seed], task index, attempt number) against the
    per-kind rates (each a probability in 0..1; at most one fault fires
    per attempt). *)
type chaos = {
  crash : float;  (** SIGKILL the worker right after the send *)
  hang : float;
      (** the worker waits for its deadline kill; with no deadline the
          attempt is charged as timed out without running *)
  alloc : float;  (** allocate ~64MB of garbage, then run normally *)
  chaos_seed : int;
}

(** The exception an injected crash's attempt fails with. *)
exception Chaos_crash

(** The pure fault draw behind chaos injection: the fault (if any) for
    attempt [attempt] of task index [task]. *)
val chaos_fault :
  chaos -> task:int -> attempt:int -> [ `Crash | `Hang | `Alloc ] option

(** Parse a [--chaos] spec: comma-separated [crash], [hang], [alloc]
    (each optionally [:RATE], default 0.1) and [seed:N] (default 1).
    E.g. ["crash:0.2,hang:0.05,seed:7"]. *)
val chaos_of_string : string -> (chaos, string) result

(** A worker process died or answered garbage mid-request, or its
    handler raised (the message is the exception's text). *)
exception Worker_failed of string

(** {1 The worker side} *)

(** The longest request a worker frame carries; a request past it that
    is due to go to a worker ends [Crashed] with [Invalid_argument]
    without being sent. *)
val max_request : int

(** Serve framed requests from stdin until EOF, replying on stdout (the
    envelope is DESIGN.md §7).  A request's chaos fault is applied
    before [handler] runs: [hang] waits for the deadline kill, [alloc]
    allocates ~64MB first.  An exception from [handler], or a reply too
    large to frame, becomes a [crash] reply; [None] ends the loop.
    Frames go to a private copy of stdout and fd 1 is pointed at stderr,
    so stray prints cannot corrupt them. *)
val serve : handler:(string -> string option) -> unit -> unit

(** {1 Batch} *)

(** [run ~handler reqs] answers every request, retrying failures up to
    [retries] times (default 2), and returns the outcomes in input order
    plus the supervisor's statistics.  [on_done i outcome] is called for
    request [i] as soon as it and every earlier request have settled, so
    a caller can stream results in input order.  [workers = 0] (the default) runs
    in-process: each attempt calls [handler budget req] under a fresh
    {!Telemetry.Budget} carrying [deadline], which the handler should
    poll (the interpreter does) — raising [Telemetry.Budget.Exhausted]
    counts as timed out, any other exception as crashed, and an injected
    hang is charged as a timeout without spinning.  [workers > 0] spawns
    that many processes from [argv] (resolved via [PATH] when [argv.(0)]
    has no slash; at most one per request), whose handler gets no budget,
    and ignores [SIGPIPE] process-wide: a dying worker must surface as a
    failed attempt.  [deadline] bounds each attempt's wall clock (a worker
    still busy past it is killed); [chaos] draws per-attempt faults from
    the pure (seed, input position, attempt) hash — [crash] SIGKILLs the
    worker right after the send.  With [trace], attempts are spans named
    by [label] (default ["task-N"]) on the worker lanes (1..workers, [1]
    in-process; a respawned worker inherits its predecessor's lane),
    chaos faults are [chaos-crash]/[chaos-hang]/[chaos-alloc] instants on
    that lane, and [task-retry], [deadline-kill], [worker-died] and
    [worker-respawn] are instants on lane 0. *)
val run :
  ?workers:int ->
  ?argv:string array ->
  ?deadline:float ->
  ?retries:int ->
  ?backoff_base:float ->
  ?chaos:chaos ->
  ?trace:Telemetry.Trace.t ->
  ?label:(int -> string) ->
  ?on_done:(int -> string outcome -> unit) ->
  handler:(Telemetry.Budget.t -> string -> string) ->
  string list ->
  string outcome list * stats
