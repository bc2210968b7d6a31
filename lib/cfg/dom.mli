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

(** Same dominator tree, depths and reachability. *)
val equal : t -> t -> bool

(** Immediate dominator; [None] for the entry and for unreachable blocks. *)
val idom : t -> int -> int option

(** [dominates t a b]: every path from the entry to [b] passes through [a].
    Reflexive. *)
val dominates : t -> int -> int -> bool
