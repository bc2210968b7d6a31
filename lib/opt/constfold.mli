(** Constant folding, algebraic simplification, and constant folding at
    conditional branches (paper §3.3.1).

    Folding a comparison of two constants deletes the conditional branch or
    turns it into an unconditional jump, exposing dead code — one of the new
    optimization opportunities replication creates. *)

val run : Ir.Machine.t -> Flow.Func.t -> Flow.Func.t * bool
(** A run that reports no change returns its input itself ([==]): the
    driver's fix-loop memo and the liveness cache recognise a function by
    identity. *)

val decidable_branches : Flow.Func.t -> (Ir.Label.t * Ir.Label.t * bool) list
(** The conditional branches a compare decides whose operands
    {!Analysis.Copyconst}'s facts over the whole function prove constant
    — the branches replication made decidable that {!run}'s per-block
    folding leaves: (block label, branch target, always taken), in block
    order.  Reachable blocks only. *)
