(** One executor: a supervisor over resident worker processes, plus the
    in-process path a one-worker batch takes.

    A unit of work is a request string answered by one handler on
    request strings.  A {!t} either calls that handler in this process
    or owns worker processes spawned from an argv, whose {!serve} loop
    calls the same handler; it is driven by {!tick}.  A batch ({!run})
    submits every request and ticks until all are done; the daemon ticks
    from its own select loop.

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
    and clamps to the core count.  [-j] and [--workers] counts go through
    the same clamp. *)
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

(** What the supervisor saw: over one {!run}, or over a {!t}'s life. *)
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

(** Publish the tallies into a {!Telemetry.Metrics} registry as the
    [pool.injected_crashes], [pool.injected_hangs], [pool.injected_allocs],
    [pool.retried], [pool.respawned] and [pool.abandoned] counters.
    No-op on a disabled registry.

    Determinism: the injected and retried counts derive from the pure
    chaos schedule, so they are identical at any worker count (asserted
    by the chaos-determinism test).  [respawned] is a scheduling artifact
    — the in-process path has no worker to lose — so it is excluded from
    that contract. *)
val stats_to_metrics : stats -> Telemetry.Metrics.t -> unit

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
    large to frame, becomes a [crash] reply; [None] ends the loop.  Frames go to a private copy of
    stdout and fd 1 is pointed at stderr, so stray prints cannot corrupt
    them. *)
val serve : handler:(string -> string option) -> unit -> unit

(** {1 The supervisor} *)

type t

(** A submitted request's future outcome. *)
type ticket

(** Spawn [workers] resident processes running [argv] (resolved via
    [PATH] when [argv.(0)] has no slash).  With [trace], each attempt is
    a complete span on its worker's lane (1..workers; a respawned worker
    inherits its predecessor's lane), chaos faults are
    [chaos-crash]/[chaos-hang]/[chaos-alloc] instants on that lane, and
    [task-retry], [deadline-kill], [worker-died] and [worker-respawn]
    are instants on lane 0.  Ignores [SIGPIPE] process-wide: a dying
    worker must surface as a failed attempt. *)
val create :
  ?trace:Telemetry.Trace.t ->
  ?backoff_base:float ->
  workers:int ->
  argv:string array ->
  unit ->
  t

(** Queue a request.  [deadline] bounds each attempt's wall clock (the
    worker is killed past it); failures retry up to [retries] times
    (default 0); [chaos] draws per-attempt faults from the pure
    (seed, submission number, attempt) hash — [crash] SIGKILLs the
    worker right after the send, [hang] and [alloc] travel in the
    envelope.  [label] names the request in traces.
    @raise Invalid_argument after {!shutdown}. *)
val submit :
  t ->
  ?deadline:float ->
  ?retries:int ->
  ?chaos:chaos ->
  ?label:string ->
  string ->
  ticket

(** One supervisor pass: a single [select] over the busy workers' pipes,
    waiting at most [timeout] seconds (less when a deadline or a retry
    falls due sooner), then deliver replies, kill overdue workers,
    respawn lost ones and dispatch queued and due requests. *)
val tick : t -> timeout:float -> unit

(** The request's outcome, once every attempt has resolved. *)
val poll : t -> ticket -> string outcome option

(** Requests submitted but not yet resolved (queued, running or waiting
    out a backoff). *)
val in_flight : t -> int

(** Requests submitted over the supervisor's life. *)
val submitted : t -> int

(** Workers currently leased to a running attempt. *)
val lease_depth : t -> int

val stats : t -> stats

(** Close every worker's stdin (their exit signal) and reap them; a
    worker still busy is killed.  [true] when no worker had to be
    killed. *)
val shutdown : t -> bool

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
    that many processes from [argv] (at most one per request), whose
    handler gets no budget.  With [trace], attempts are spans named by
    [label] (default ["task-N"]) on the worker lanes ([1] in-process). *)
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
