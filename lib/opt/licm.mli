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
    and loop forest are updated for each preheader rather than rebuilt,
    and liveness is solved again only when a query lands in a block a
    hoist changed ({!Live}). *)

(** Liveness kept across preheader edits.  A hoist changes liveness only
    in the hoisted loop's body and its jump-only stub, if any: the new
    preheader's live-in is the old header's, and every path from a block
    outside the loop into it enters through the preheader.  So the facts
    of the last solve answer, by label, for every block except those
    (dirty) ones; a preheader answers with its header's facts, unless the
    header was already dirty, when it is dirty too. *)
module Live : sig
  type t

  (** Nothing solved yet: the first query solves. *)
  val create : unit -> t

  (** Solve for the function, forgetting every earlier edit. *)
  val solve : ?cfg:Flow.Cfg.t -> t -> Flow.Func.t -> unit

  (** [note_hoist t ~before loop ~after]: [after] is [before] with
      [loop] hoisted into a fresh preheader (and stub).  Nothing is
      solved. *)
  val note_hoist :
    t -> before:Flow.Func.t -> Flow.Loops.loop -> after:Flow.Func.t -> unit

  (** The kept live-in of block [i] of the current function, or [None]
      when it is dirty or nothing was solved. *)
  val kept_in : t -> Flow.Func.t -> int -> Flow.Liveness.Regs.t option

  (** [mem_in t g func i r]: whether [r] is live into block [i] of
      [func] (whose graph is [g]); solves [func] again when the kept
      facts cannot tell. *)
  val mem_in : t -> Flow.Cfg.t -> Flow.Func.t -> int -> Ir.Reg.t -> bool
end

(** [on_hoist ~before loop ~after live] is called after each hoist, once
    [live] has noted it. *)
val run :
  ?on_hoist:
    (before:Flow.Func.t -> Flow.Loops.loop -> after:Flow.Func.t -> Live.t -> unit) ->
  Flow.Func.t ->
  Flow.Func.t * bool

(** Insert an empty preheader block positionally just before the loop's
    header and redirect every edge into the header from outside the loop
    to it.  A loop block that falls through into the header gains a jump
    to it, or, when it ends in a conditional branch, a jump-only stub
    placed before the preheader.  Returns the new function and the
    preheader's label.  Exposed for {!Strength}. *)
val insert_preheader :
  Flow.Func.t -> Flow.Loops.loop -> Flow.Func.t * Ir.Label.t
