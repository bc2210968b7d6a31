(** Loop-invariant code motion (paper: "code motion").

    Each round visits the natural loops innermost first and hoists out of
    the first loop that has anything to hoist; then the next round starts
    from the innermost loop again, up to 50 rounds.  Every hoist creates a
    fresh preheader just before the loop's header (giving replication its
    "relocating the preheader" opportunities, §3.3.3), so a chain of
    invariants that become hoistable one after another leaves stacked
    preheaders, one per round.

    A register [d] defined in the loop is hoisted when every definition of
    [d] in the loop is the same invariant computation — one instruction
    [d := e] that does not read [d], or the adjacent two-address pair
    [d := a; d := d op b] — whose operands have no definition in the
    loop.  All those definitions are deleted and one copy moves to the
    preheader, provided:
    - the instructions are pure, and read memory only if the loop has no
      store and no call;
    - they cannot fault, since the preheader runs even when the loop body
      would not: no division by a register or memory operand, loads only
      through the frame pointer or absolute addresses;
    - [d] is not live into the header;
    - at every loop exit where [d] is live, some deleted definition
      dominates the exit's source block.

    A loop that hoisted nothing is not analysed again until a hoist
    touches one of its body blocks or exit targets; the CFG, dominators
    and loop forest are updated for each preheader rather than rebuilt. *)

val run : Flow.Func.t -> Flow.Func.t * bool

(** Insert an empty preheader block positionally just before the loop's
    header and redirect every edge into the header from outside the loop
    to it.  A loop block that falls through into the header gains a jump
    to it, or, when it ends in a conditional branch, a jump-only stub
    placed before the preheader.  Returns the new function and the
    preheader's label.  Exposed for {!Strength}. *)
val insert_preheader :
  Flow.Func.t -> Flow.Loops.loop -> Flow.Func.t * Ir.Label.t
