(** Dominator analysis (Cooper–Harvey–Kennedy iterative algorithm).

    Unreachable blocks have no dominator information; they dominate only
    themselves and are dominated by nothing. *)

type t

val compute : Cfg.t -> t

(** The dominators after a preheader edit ({!Cfg.insert_preheader}):
    [added] blocks inserted at index [header] — the preheader last, just
    before the header, and when [added = 2] a jump-only stub first, the
    fall-through successor of block [header - 1].  Equal to [compute] on
    the edited graph. *)
val insert_preheader : t -> header:int -> added:int -> t

(** The part of the graph {!splice} recomputed: the blocks [root]
    dominates, which it searched depth-first from [root].  [retreating]
    are the edges that search took into a block on its stack. *)
type region = { root : int; retreating : (int * int) list }

(** The dominators after a replication splice ({!Cfg.splice}) of the
    graph they were computed for; [g] is the edited graph.  The blocks
    inserted after block [after] copy the blocks [copy_of] names (old
    indices), and [rewritten] (new indices) had their branches
    redirected.  Equal to [compute g].  Every block whose dominators
    changed, and every reachable inserted block, lies in the returned
    region, whose root kept its own dominators; [None] when the edit
    touched only unreachable blocks. *)
val splice :
  t -> Cfg.t -> after:int -> copy_of:int array -> rewritten:int list ->
  t * region option

(** Same dominator tree, depths and reachability. *)
val equal : t -> t -> bool

(** Immediate dominator; [None] for the entry and for unreachable blocks. *)
val idom : t -> int -> int option

(** [dominates t a b]: every path from the entry to [b] passes through [a].
    Reflexive. *)
val dominates : t -> int -> int -> bool
