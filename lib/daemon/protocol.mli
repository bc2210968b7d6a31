(** The jumprepd wire protocol (see DESIGN.md "Daemon wire protocol").

    Frames are {!Harness.Frame} frames (a 4-byte big-endian payload
    length, then that many bytes) carrying one [Telemetry.Json]
    document.  A request is one {!envelope} per frame; the server
    answers with zero or more [Telemetry] frames then exactly one
    [Result]/[Error_resp] frame carrying the request id. *)

(** Per-request quality-of-service knobs, all optional on the wire.
    [deadline] bounds each attempt's wall clock (the worker is killed
    past it); [wall_budget]/[growth_budget] bound the compile
    itself and degrade JUMPS toward SIMPLE instead of erroring; [retries]
    reschedules crashed/timed-out attempts; [chaos] injects worker
    faults ({!Harness.Pool.chaos} grammar); [telemetry] streams the
    request's JSONL log back before the result. *)
type qos = {
  deadline : float option;
  wall_budget : float option;
  growth_budget : int option;
  retries : int;
  chaos : Harness.Pool.chaos option;
  telemetry : bool;
}

val default_qos : qos

type request =
  | Compile of {
      path : string;
      source : string;
      level : Opt.Driver.level;
      machine : Ir.Machine.t;
    }
  | Measure of {
      path : string;
      source : string;
      input : string;
      machine : Ir.Machine.t;
    }
  | Lint of {
      path : string;
      source : string;
      level : Opt.Driver.level;
      machine : Ir.Machine.t;
    }
  | Explain of {
      path : string;
      source : string;
      level : Opt.Driver.level;
      machine : Ir.Machine.t;
    }
  | Fuzz of { seeds : int; start : int; max_steps : int }
  | Status  (** server metrics snapshot *)
  | Ping
  | Drain  (** begin graceful drain, as if SIGTERM *)

type envelope = { id : int; qos : qos; req : request }

(** ["compile"], ["measure"], ... — the envelope's ["kind"] field. *)
val kind_name : request -> string

val envelope_to_json : envelope -> Telemetry.Json.t

(** Strict validation: missing/mistyped fields, unknown kinds, oversized
    sources, and out-of-range QoS values are all [Error] — the server
    maps them to [Bad_request], never an exception. *)
val envelope_of_json : Telemetry.Json.t -> (envelope, string) result

(** Parse + validate one request payload. *)
val parse_envelope : string -> (envelope, string) result

type error_code =
  | Overloaded  (** admission queue full; retry later *)
  | Draining  (** server is shutting down; no new work *)
  | Bad_request  (** unparseable or invalid request *)
  | Crashed  (** every attempt of the request crashed *)
  | Deadline  (** every attempt hit the request deadline *)
  | Runtime_error  (** the program itself faulted (typed diagnostic) *)
  | Internal  (** unexpected server-side failure *)

val error_code_name : error_code -> string
val error_code_of_name : string -> error_code option

(** A result's [payload] is the rendered JSON document, carried as an
    opaque string and printed verbatim by the client — re-parsing and
    re-rendering would perturb float formatting and break the
    byte-identity contract with the one-shot CLI. *)
type response =
  | Telemetry of { id : int; line : string }
  | Result of { id : int; payload : string; elapsed_ms : float }
  | Error_resp of { id : int; code : error_code; message : string }

val response_to_json : response -> Telemetry.Json.t
val response_of_json : Telemetry.Json.t -> (response, string) result
val parse_response : string -> (response, string) result

(** Connection-level chaos, injected client-side: [disconnect] closes the
    socket mid-frame, [slowloris] dribbles the request one byte at a
    time, [garbage] corrupts the payload so it cannot parse.  Like pool
    chaos, the draw is a pure function of ([conn_seed], request index):
    campaigns reproduce exactly. *)
type conn_chaos = {
  disconnect : float;
  slowloris : float;
  garbage : float;
  conn_seed : int;
}

(** Parse [--chaos disconnect|slowloris|garbage[:RATE],seed:N] (rates
    default 0.1, seed defaults 1). *)
val conn_chaos_of_string : string -> (conn_chaos, string) result

(** The fault drawn for request number [req], if any. *)
val conn_fault :
  conn_chaos -> req:int -> [ `Disconnect | `Slowloris | `Garbage ] option
