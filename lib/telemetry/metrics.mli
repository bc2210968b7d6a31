(** Typed metrics registry: counters and fixed-bucket histograms.

    A registry is {e single-process} mutable state — the sharding
    discipline is one registry per task or worker process, shipped back
    with {!to_json}/{!of_json} and folded into the parent's with
    {!merge} in task order.  Because counters and histograms merge by
    commutative addition, the merged registry is identical to the one a sequential run produces whatever
    the worker count (asserted by [test_telemetry] and the
    parallel-sweep determinism tests).

    Every update is a no-op on {!null}, so instrumented code pays one
    load and one branch when metrics are off. *)

type t

val create : unit -> t

(** The shared disabled registry: all updates are no-ops, all reads
    empty. *)
val null : t

val enabled : t -> bool

(** Standard histogram bucket layouts (upper bounds; the overflow bucket
    is implicit). *)
module Buckets : sig
  (** Wall-clock milliseconds: 10µs … 3s in 1-3-10 steps. *)
  val time_ms : float array

  (** Doubling buckets [2^lo … 2^hi]. *)
  val pow2 : lo:int -> hi:int -> float array

  (** Executed-instruction counts: 256 … 64M, doubling. *)
  val instrs : float array
end

(** [bucket_index edges v] is the index of the bucket counting [v]: the
    first [i] with [v <= edges.(i)], or [Array.length edges] (the
    overflow bucket).  Exposed for the bucket-edge tests. *)
val bucket_index : float array -> float -> int

(** Counter update (registers on first use).
    @raise Invalid_argument if [name] is already a histogram. *)
val add : t -> string -> int -> unit

val incr : t -> string -> unit

(** Histogram observation.  The bucket layout is fixed by the first
    observation; later [buckets] arguments are ignored. *)
val observe : t -> string -> buckets:float array -> float -> unit

(** Current value of a counter (0 if absent or not a counter). *)
val counter_value : t -> string -> int

(** All counters, sorted by name. *)
val counters : t -> (string * int) list

type view =
  | VCounter of int
  | VHistogram of { edges : float array; counts : int array; sum : float; count : int }

(** Every metric, sorted by name. *)
val snapshot : t -> (string * view) list

(** Fold [src] into [into]: counters and histogram buckets add.  Call
    once per shard, in task order, for a deterministic result.
    @raise Invalid_argument on name/type or bucket-layout clashes. *)
val merge : into:t -> t -> unit

(** Name-sorted JSON object: counters as numbers, histograms as
    [{type,edges,counts,sum,count}]. *)
val to_json : t -> Json.t

(** The registry a {!to_json} document describes — how a worker
    process's registry crosses its pipe to be {!merge}d by the parent. *)
val of_json : Json.t -> t
