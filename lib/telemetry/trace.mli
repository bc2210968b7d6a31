(** Chrome/Perfetto trace-event export ([--trace-out]).

    A collector of complete spans (phase ["X"]), instant events (["i"])
    and thread/process metadata (["M"]), written as the standard
    trace-event JSON object that [chrome://tracing] and
    {{:https://ui.perfetto.dev}Perfetto} load directly.  It lives in the
    parent process: the pool supervisor records its own events on lane
    (tid) 0 and each worker process's task attempts on that worker's
    lane [k], so worker processes never touch it.  Appends are
    mutex-protected.  Timestamps are microseconds since {!create}. *)

type t

val create : unit -> t

(** Microseconds since the trace was created (pass to {!complete}). *)
val now_us : t -> float

(** Number of events recorded so far. *)
val events : t -> int

(** A finished span on lane [tid]. *)
val complete :
  t ->
  tid:int ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  name:string ->
  ts_us:float ->
  dur_us:float ->
  unit ->
  unit

(** A point event, stamped now, thread-scoped to its lane. *)
val instant :
  t -> tid:int -> ?cat:string -> ?args:(string * Json.t) list -> string -> unit

val thread_name : t -> tid:int -> string -> unit
val process_name : t -> string -> unit

(** [{"traceEvents":[...],"displayTimeUnit":"ms"}], events sorted by
    timestamp. *)
val to_json : t -> Json.t

val write : t -> out_channel -> unit
