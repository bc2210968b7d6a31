(** Per-pass profiler ([--profile]).

    One attribution table, fed by the {!Opt.Driver} pass boundary:
    wall-clock and GC allocation per (function x pass).  Single-process
    state: each task profiles into a private shard
    (shipped back with {!to_json}/{!of_json} from a worker process), and
    the parent folds them back with {!merge} in task order.  Every
    recording is a no-op on {!null}. *)

type t

val create : unit -> t
val null : t
val enabled : t -> bool

(** Words allocated by this process so far ([minor + major - promoted]);
    sample before/after a region and subtract. *)
val alloc_words : unit -> float

(** One presentation of [pass] to [func]: [ran] is false when the
    driver replayed a memoized no-change verdict instead of running the
    pass, [changed] is the pass's change flag. *)
val record_pass :
  t ->
  func:string ->
  pass:string ->
  ran:bool ->
  changed:bool ->
  wall_ms:float ->
  alloc:float ->
  unit

(** Fold [src] into [into] (commutative sums; call in task order for a
    deterministic aggregate). *)
val merge : into:t -> t -> unit

type pass_row = {
  p_func : string;  (** [""] in {!by_pass} aggregates *)
  p_pass : string;
  p_calls : int;  (** presentations, memo replays included *)
  p_runs : int;  (** presentations that ran the pass: [calls - runs] replays *)
  p_changed : int;  (** runs that reported a change *)
  p_wall_ms : float;
  p_alloc_words : float;
}

(** All (function x pass) rows, hottest first (wall time, then name). *)
val pass_rows : t -> pass_row list

(** One row per pass, aggregated over functions, hottest first. *)
val by_pass : t -> pass_row list

(** [{"passes":[...]}]: the {!pass_rows}. *)
val to_json : t -> Json.t

(** The profile a {!to_json} document's [passes] rows describe — how a
    worker process's profile crosses its pipe to be {!merge}d by the
    parent. *)
val of_json : Json.t -> t

(** The [--profile] report: pass totals, then the top-15 (function x
    pass) rows. *)
val pp_table : Format.formatter -> t -> unit
