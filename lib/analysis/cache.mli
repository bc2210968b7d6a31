(** Per-function fact caching.

    A tiny physical-equality memo table: analyses are pure functions of an
    immutable IR value ([Flow.Func.t] is rebuilt by [with_blocks] on every
    change), so physical identity of the key is a sound cache key.  Several
    passes per pipeline iteration ask for liveness of the same unchanged
    function; the cache turns all but the first into a lookup.

    The table is bounded (FIFO eviction) so it never pins more than a few
    recent functions.  It is not synchronised: [Flow.Liveness] keeps one table per
    process, and parallel work runs in separate worker processes. *)

type ('k, 'v) t

val create : ?size:int -> unit -> ('k, 'v) t

(** [find t k compute] returns the cached value for [k] (compared with
    [==]) or runs [compute k], stores and returns the result. *)
val find : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v
