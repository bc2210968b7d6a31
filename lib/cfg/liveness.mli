(** Backward liveness dataflow over registers (including {!Ir.Reg.Cc}),
    solved on dense bitsets by {!Analysis.Live}.  Consumers read the facts
    in place: membership queries, and a backward fold whose live-after
    view is updated in place. *)

open Ir

type t

(** A read-only view of a register set; see {!Analysis.Live.Regs}. *)
module Regs = Analysis.Live.Regs

(** Solve (or recall) liveness for [func].  [cfg], when the caller has
    already built [Cfg.make func], saves building it again.  Results are
    memoized per process on the physical identity of [func]. *)
val compute : ?cfg:Cfg.t -> Func.t -> t

(** [adopt t func] gives [func] the facts of [t], and [compute func]
    recalls them while they are cached.  The caller warrants that they
    are [func]'s own: same control flow, and every block's live-in and
    live-out sets those [compute func] would solve. *)
val adopt : t -> Func.t -> t

val stats : t -> Analysis.Dataflow.stats

(** Registers live on entry to / exit from block [i]. *)
val live_in : t -> int -> Regs.t

val live_out : t -> int -> Regs.t

(** [mem_in t i r] is [Regs.mem (live_in t i) r]. *)
val mem_in : t -> int -> Reg.t -> bool

val mem_out : t -> int -> Reg.t -> bool

(** [fold_backward t f i ~init] folds [f] over block [i]'s instructions from
    last to first.  [f acc instr ~live_after] receives the registers live
    immediately after [instr], as a view that the fold updates in place:
    read it during the call, do not keep it. *)
val fold_backward :
  t ->
  ('a -> Rtl.instr -> live_after:Regs.t -> 'a) ->
  int ->
  init:'a ->
  'a

(** [sweep t drop i] is {!Analysis.Live.sweep} over block [i]. *)
val sweep :
  t ->
  (Rtl.instr -> live_after:Regs.t -> bool) ->
  int ->
  Analysis.Live.swept option

(** [dead_result live_after instr]: [instr] writes at least one register
    ([Cc] included) and none of them is in [live_after]. *)
val dead_result : Regs.t -> Rtl.instr -> bool
