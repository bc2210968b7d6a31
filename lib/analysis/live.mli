(** Backward liveness over registers (including {!Ir.Reg.Cc}), solved on
    dense bitsets.  [Flow.Liveness] wraps this for [Func.t] callers; the
    raw interface works on any block array + graph.

    Registers are numbered per solve: [Cc] is 0, [Phys i] is [1 + i] and
    [Virt n] is [1 + Conv.num_regs + n].  A set is [words] machine ints of
    62 bits each, wide enough for the highest register the blocks
    mention; a solve's live-in and live-out sets each fill one flat
    [int array].
    Per-block gen/kill sets are built once, with {!Ir.Rtl.iter_uses} and
    {!Ir.Rtl.iter_defs}, and {!Bitvec.solve} iterates them on the schedule
    of {!Dataflow.Solver}, so [stats.visits] equals the generic solver's. *)

open Ir

(** The numbering above: [Cc] is 0, [Phys i] is [1 + i], [Virt n] is
    [1 + Conv.num_regs + n]. *)
val index : Reg.t -> int

(** A read-only view of one register set. *)
module Regs : sig
  type t

  val mem : t -> Reg.t -> bool

  val fold : (Reg.t -> 'a -> 'a) -> t -> 'a -> 'a

  (** [or_into s dst off] ORs the set's words into [dst.(off)],
      [dst.(off + 1)], ...: register [index r] is bit
      [index r mod Bitvec.bits_per_word] of word
      [index r / Bitvec.bits_per_word].
      [dst] must hold as many words from [off] as the solve's width. *)
  val or_into : t -> int array -> int -> unit
end

type t

val stats : t -> Dataflow.stats

(** Registers live on entry to block [i]. *)
val live_in : t -> int -> Regs.t

(** Registers live on exit from block [i]. *)
val live_out : t -> int -> Regs.t

(** [fold_backward t f instrs i ~init] folds [f] over [instrs] (block
    [i]'s instructions) from last to first.  [f acc instr ~live_after]
    sees the registers live immediately after [instr]; the view is one
    buffer updated in place as the fold moves up, so it is only valid
    during that call of [f]. *)
val fold_backward :
  t ->
  ('a -> Rtl.instr -> live_after:Regs.t -> 'a) ->
  Rtl.instr list ->
  int ->
  init:'a ->
  'a

(** A block swept by {!sweep}: the instructions kept, whether their
    live-in differs from the solved live-in, and, when it does not, the
    registers the dropped instructions read before any write that no kept
    instruction reads so any more. *)
type swept = { kept : Rtl.instr list; live_in_changed : bool; lost : Reg.t list }

(** [sweep t drop instrs i] walks [instrs] (block [i]'s instructions)
    from last to first, starting from the solved live-out, and drops each
    instruction for which [drop instr ~live_after] holds.  A dropped
    instruction neither kills nor generates, so [live_after] is the
    liveness of the instructions kept below it, and a chain of dead
    instructions inside the block goes in one walk.  The view is one
    buffer updated in place.  [None] when nothing was dropped. *)
val sweep :
  t ->
  (Rtl.instr -> live_after:Regs.t -> bool) ->
  Rtl.instr list ->
  int ->
  swept option

(** [regs] guesses the width: one more than the highest register number
    the blocks mention.  The blocks are scanned once at that width; a short
    guess costs a second scan at the measured width, never a wrong
    answer. *)
val solve :
  ?max_visits:int ->
  ?regs:int ->
  graph:Dataflow.graph ->
  instrs:Rtl.instr list array ->
  unit ->
  t
