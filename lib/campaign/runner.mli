(** The one campaign function over keyed requests ({!run}) and its
    instances: the measure {!sweep}, the {!fuzz} campaign, and the CLI's
    in-process certify.  The store is read and written here only.

    Byte-stability of the sweep: a row is the *rendered* result
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

(** {1 Store-through} *)

(** The committed entry for [key], decoded; [Error None] on a miss;
    [Error (Some d)] when it is corrupt or fails [decode], with [d] its
    counted [store-corrupt] diagnostic. *)
val resolve :
  Store.t ->
  key:string ->
  (Telemetry.Json.t -> ('a, string) result) ->
  ('a, Telemetry.Diag.t option) result

(** [lease ?store ~key] journals [key] as in flight and returns the
    function that commits its entry's fields.  A no-op without a store
    or for the empty key. *)
val lease :
  ?store:Store.t -> key:string -> (string * Telemetry.Json.t) list -> unit

(** What whoever answers a keyed request runs: {!lease} [key], compute
    [(entry, extra)], commit [entry], reply with the object
    [entry @ extra]. *)
val answer :
  ?store:Store.t ->
  key:string ->
  (unit -> (string * Telemetry.Json.t) list * (string * Telemetry.Json.t) list) ->
  string

(** {1 The keyed ops} *)

(** Answer a [measure] request (measure the task, under [budget]
    in-process; reply with the entry — rendered row and counter deltas —
    plus the task's metrics registry and, when asked, its profile) or a
    [fuzz] request (check and reduce one seed; the reply is the entry).
    A bad request or a failed computation raises. *)
val handle : ?store:Store.t -> ?budget:Telemetry.Budget.t -> string -> string

(** [handle ~store] as a {!Shard.serve} handler. *)
val worker_handler : Store.t -> string -> string option

(** {1 The campaign function} *)

(** Answer every [(key, request)] pair; the empty key is never looked
    up or committed.  With [resume] (default false) each key is
    {!resolve}d once: a hit is answered from the store, a corrupt entry
    recomputed behind a returned [store-corrupt] diagnostic; without it
    the store is written but never read.  The rest run on
    {!Harness.Pool.run}: in-process with [handler] (default {!handle}
    [?store]) when [workers = 0], the default, else on worker processes
    from [worker_argv] that commit to the same store.  Cached entries
    and fresh replies go through the same [decode], told which it has;
    a reply it rejects counts as a crashed attempt.  [on_answer] sees
    each outcome in task order once every earlier one is in. *)
val run :
  ?store:Store.t ->
  ?resume:bool ->
  ?workers:int ->
  ?worker_argv:string array ->
  ?deadline:float ->
  ?retries:int ->
  ?chaos:Harness.Pool.chaos ->
  ?trace:Telemetry.Trace.t ->
  ?label:(int -> string) ->
  ?on_answer:(int -> 'a Harness.Pool.outcome -> unit) ->
  ?handler:(Telemetry.Budget.t -> string -> string) ->
  decode:(cached:bool -> Telemetry.Json.t -> ('a, string) result) ->
  (string * string) list ->
  'a Harness.Pool.outcome list * Telemetry.Diag.t list * Harness.Pool.stats

(** {1 The measure instance} *)

(** Run a sweep: {!run} over one [measure] request per task, keyed by
    {!Key.measure} when there is a store.  [worker_argv] is a command
    serving the op, e.g. [jumprepc worker --store DIR]; [retries]
    defaults to 2.

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

(** {1 The fuzz instance} *)

type fuzz_report = {
  fz_seeds : int;
  fz_cached : int;  (** seeds resolved from the store *)
  fz_failures : (int * Harness.Fuzz.failure * string) list;
      (** seed, reduced failure, path of the written reproducer *)
  fz_aborted : (int * string) list;  (** seeds with no verdict (chaos) *)
  fz_diags : Telemetry.Diag.t list;  (** [store-corrupt] diagnostics *)
  fz_pool : Harness.Pool.stats;
}

(** Fuzz seeds [start .. start + seeds - 1]: {!run} over one [fuzz]
    request per seed, keyed by {!Key.fuzz} when there is a store.  Each
    verdict, cached or fresh, writes its reproducer under [out_dir] and
    calls [on_seed] with the original failure, in seed order as soon as
    every earlier seed is done — the same at any worker count and on
    any resume. *)
val fuzz :
  ?store:Store.t ->
  ?resume:bool ->
  ?max_steps:int ->
  ?verify:bool ->
  ?inject_fault:string ->
  ?out_dir:string ->
  ?start:int ->
  ?on_seed:(int -> Harness.Fuzz.failure option -> unit) ->
  ?workers:int ->
  ?worker_argv:string array ->
  ?chaos:Harness.Pool.chaos ->
  seeds:int ->
  unit ->
  fuzz_report
