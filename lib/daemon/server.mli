(** jumprepd: the compilation-as-a-service daemon behind
    [jumprepc serve].

    A single select loop owns the Unix-domain listening socket and every
    client connection; compute runs on resident worker processes
    supervised by a {!Harness.Pool}, whose {!Harness.Pool.tick} the loop
    drives (a worker runs {!handle} on each request).  Admission is
    bounded ([queue_cap], explicit [overloaded] rejections), execution is
    crash-isolated with per-request deadlines/retries/chaos, and SIGTERM
    (or a [drain] request) triggers a graceful, deadline-bounded drain.
    See DESIGN.md "Daemon wire protocol". *)

(** An optional measure-payload cache plugged in by the CLI (a campaign
    store).  The daemon process itself calls [rc_find] at admission (a
    hit answers at once; a miss leases the key) and [rc_commit] when the
    payload arrives, so [rc_stats] — [status]'s store gauges — sees
    every lookup. *)
type result_cache = {
  rc_find : source:string -> input:string -> machine:string -> string option;
  rc_commit : source:string -> input:string -> machine:string -> string -> unit;
  rc_stats : unit -> (string * int) list;
}

type config = {
  socket_path : string;  (** Unix-domain socket path (unlinked on exit) *)
  jobs : int;  (** resident worker processes (at least one) *)
  worker_argv : string array;
      (** the worker command: serves the [request] op with {!handle} *)
  queue_cap : int;  (** max requests in flight before [overloaded] *)
  drain_deadline : float;  (** seconds to finish in-flight work on drain *)
  idle_timeout : float;  (** close idle / half-open connections after this *)
  default_deadline : float option;
      (** per-request deadline when the qos omits one *)
  fuzz_out : string;  (** reproducer directory for [fuzz] requests *)
  trace : Telemetry.Trace.t option;
      (** record worker/supervisor lanes into this trace *)
  quiet : bool;  (** suppress lifecycle lines on stderr *)
  store : result_cache option;
      (** memoize measure payloads across requests (and daemon restarts) *)
}

(** jobs 1, [Sys.executable_name worker] as the worker command (right
    for [jumprepc]), queue cap 64, drain deadline 10s, idle timeout 30s,
    no default deadline, no trace. *)
val default_config : string -> config

type drain_result = {
  clean : bool;
      (** every in-flight request finished inside the drain deadline and
          every worker joined *)
  force_stopped : int;  (** requests abandoned at the drain deadline *)
}

(** The [request] op, run in a worker process: one daemon envelope
    ([{"op":"request","envelope":...,"fuzz_out":...}]) executed as the
    one-shot CLI would.  The reply is one JSON line holding the
    request's telemetry [events] (when its QoS asked for them) and, on
    failure, the wire error's [code] and [message]; on success a newline
    and the rendered payload follow, verbatim. *)
val handle : string -> string

(** Run the daemon until drained.  Binds and listens on
    [config.socket_path] — a stale socket file (nobody answers) is
    replaced, but if a daemon is already serving on it the call raises
    [Telemetry.Diag.Error] with an [io-error] diagnostic instead of
    stealing the endpoint.  Prints one
    [jumprepd: listening on ...] readiness line on stdout, serves until
    SIGTERM/SIGINT or a [drain] request, then drains and reports.
    Installs its own SIGTERM/SIGINT handlers (restored on exit) and
    ignores SIGPIPE. *)
val serve : config -> drain_result
