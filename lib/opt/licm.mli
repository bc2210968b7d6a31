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
    and liveness is solved again only when a query asks about a register
    a hoist moved, in a block that hoist changed ({!Live}). *)

(** Liveness kept across preheader edits, register by register.

    A hoist moves [code] out of a loop: every instruction it deletes
    equals one in [code], and the blocks it inserts hold only [code] (the
    preheader) or a [Jump] (the stub); the in-loop block that falls into
    the header may gain a [Jump]; edges into the header from outside the
    loop now pass through the preheader.  So along every path the reads
    and writes of a register [code] does not mention are unchanged, and so
    is its liveness: at every old block, and at the preheader and the stub
    it is the header's.  A register [code] does mention keeps its liveness
    outside the loop too, since every path into the loop from outside
    enters through the preheader, whose live-in is the old header's: the
    operands of [code] are written nowhere in the loop and read in it, so
    they were live into the header, and its destinations were not (the
    hoisting condition above), while the preheader reads the former and
    writes the latter before reading them.

    Hence each block keeps a dirty set of registers: a hoist adds every
    register [code] reads or writes to the set of each block of the loop,
    and the new preheader and stub take the header's set and answer with
    the facts of the label the header answers with.  For every register
    outside a block's set, the facts of the last solve give that block's
    live-in; only a query for a register inside the set solves again. *)
module Live : sig
  type t

  (** Nothing solved yet: the first query solves. *)
  val create : unit -> t

  (** Solve for the function, forgetting every earlier edit. *)
  val solve : ?cfg:Flow.Cfg.t -> t -> Flow.Func.t -> unit

  (** [note_hoist t ~before loop ~after ~code]: [after] is [before] with
      [code] hoisted out of [loop] into a fresh preheader (and stub).
      Nothing is solved. *)
  val note_hoist :
    t ->
    before:Flow.Func.t ->
    Flow.Loops.loop ->
    after:Flow.Func.t ->
    code:Ir.Rtl.instr list ->
    unit

  (** [kept_in t func i]: the kept live-in of block [i] of the current
      function and the block's dirty set, the registers for which it may
      be stale; [None] when nothing was solved. *)
  val kept_in :
    t -> Flow.Func.t -> int -> (Flow.Liveness.Regs.t * Ir.Reg.Set.t) option

  (** The function the kept facts were solved for, if any. *)
  val solved : t -> Flow.Func.t option

  (** [mem_in t g func i r]: whether [r] is live into block [i] of
      [func] (whose graph is [g]); solves [func] again when the kept
      facts cannot tell. *)
  val mem_in : t -> Flow.Cfg.t -> Flow.Func.t -> int -> Ir.Reg.t -> bool
end

(** The labels a loop's hoisting decision depends on: its body blocks and
    its exit targets. *)
val footprint : Flow.Func.t -> Flow.Cfg.t -> Flow.Loops.loop -> Ir.Label.Set.t

(** [on_hoist ~before loop ~after ~code live] is called after each hoist
    of [code], once [live] has noted it.  [on_skip ~recorded func g loop]
    is called when a round passes over [loop] of [func] (graph [g])
    because it hoisted nothing before; [recorded] is its footprint then. *)
val run :
  ?on_hoist:
    (before:Flow.Func.t ->
    Flow.Loops.loop ->
    after:Flow.Func.t ->
    code:Ir.Rtl.instr list ->
    Live.t ->
    unit) ->
  ?on_skip:
    (recorded:Ir.Label.Set.t ->
    Flow.Func.t ->
    Flow.Cfg.t ->
    Flow.Loops.loop ->
    unit) ->
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
