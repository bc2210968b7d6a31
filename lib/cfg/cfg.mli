(** Control-flow edges of a {!Func.t}, by block index.

    Successor order is significant where a fall-through exists: the
    fall-through successor comes first, then explicit branch targets. *)

type t

(** The graph of [f].  Memoized per function version: [Func.t] and [t]
    are immutable, so the last two functions asked about (compared with
    [==]) are answered without a rebuild.  Graphs built by
    {!insert_preheader} and {!splice} are not entered: most of those
    versions are edited again before anything asks for their graph. *)
val make : Func.t -> t
val num_blocks : t -> int
val succs : t -> int -> int list
val preds : t -> int -> int list

(** The graph of [f] after a preheader edit of the graph described:
    [added] blocks were inserted at index [header] (the old header's), so
    every index at or above [header] moved up by [added], and only the
    inserted blocks, the block before them and the old predecessors of
    [header] changed their transfers.  Equal to [make f]. *)
val insert_preheader : t -> Func.t -> header:int -> added:int -> t

(** The graph of [f] after a replication splice of the graph described:
    [added] blocks were inserted after block [after], so every index
    above [after] moved up by [added], and only block [after], the
    inserted blocks and the [rewritten] ones (new indices) changed their
    transfers.  Equal to [make f]. *)
val splice : t -> Func.t -> after:int -> added:int -> rewritten:int list -> t

(** Blocks reachable from the entry along CFG edges. *)
val reachable : t -> bool array

(** Reverse postorder of the depth-first traversal from the entry.
    Unreachable blocks are appended at the end in index order. *)
val reverse_postorder : t -> int array

(** The CFG as an abstract dataflow graph for {!Analysis.Dataflow}. *)
val graph : t -> Analysis.Dataflow.graph
