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

(** [dead_result ~cc live_after instr]: [instr] writes at least one
    register and none of them is in [live_after].  [Cc] counts as a
    written register only when [cc] holds. *)
val dead_result : cc:bool -> Regs.t -> Rtl.instr -> bool
