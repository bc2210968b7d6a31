(** Shortest replication paths in the control-flow graph.

    The cost of a path is the number of RTLs in the traversed blocks —
    exactly the code-size increase its replication would cause.  Following
    the paper, [dist u v] sums the sizes of the blocks from [u] up to but
    {e excluding} [v], so the favoring-loops cost of replacing a jump to [t]
    that should rejoin at [f] is [dist t f], and the favoring-returns cost
    for return block [r] is [dist t r + size r].

    Edges excluded from paths (paper §4 step 1): self-loops and the outgoing
    edges of blocks ending in indirect jumps.

    Paths are reconstructed canonically from the distances alone
    (lowest-numbered tight predecessor first), so any solver that agrees
    on distances returns identical block sequences; property tests
    exploit this by checking the lazy Dijkstra against a Floyd/Warshall
    oracle that carries its own copy of the reconstruction. *)

type path = { cost : int; blocks : int list (** from source inclusive *) }

(** Lazy per-source Dijkstra, memoized: a source's distances are computed
    the first time a path from it is requested.  The JUMPS pass only ever
    queries jump targets, so most blocks never pay anything. *)
type t

val create : Flow.Func.t -> Flow.Cfg.t -> t

(** The solver for [func] after a replication splice
    ({!Replicate.splice}) of the function [t] was made for: [g] is the
    edited graph, and [added] blocks were inserted after block [after].
    Equal to [create func g]; no distances are carried over. *)
val splice : t -> Flow.Func.t -> Flow.Cfg.t -> after:int -> added:int -> t
val path : t -> src:int -> dst:int -> path option

(** The cost of [path t ~src ~dst] when it is not [None], without
    reconstructing the path; [None] when [src = dst] or [dst] cannot be
    reached from [src]. *)
val distance : t -> src:int -> dst:int -> int option
