(** Dead variable elimination: delete pure instructions whose results are
    never used (global liveness), including comparisons whose condition
    codes are dead and register self-moves.

    One run reaches the fixpoint: the output has nothing left to delete,
    so a second run reports no change.  A dead chain inside a block goes
    in one backward walk, since a deleted instruction's uses are not
    added to liveness; liveness is solved again only when a deletion may
    have changed it outside the block.  Deleting a dead pure instruction
    only shrinks liveness, so the output does not depend on the order of
    deletion: it is what one-layer-at-a-time deletion reaches when
    repeated until nothing changes.  The facts of the last solve, when
    they are the output's own, are left in {!Flow.Liveness}'s cache for
    the next pass. *)

val run : Flow.Func.t -> Flow.Func.t * bool
