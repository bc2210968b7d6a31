(** Branch chaining and trivial jump cleanup.

    - Branch/jump targets that land on an empty block or a block consisting
      only of an unconditional jump are redirected to the chain's end
      (cycle-safe).
    - A jump to the positionally next block is deleted.
    - A conditional branch to the positionally next block is deleted (both
      edges coincide).
    - A branch over a jump ([Branch c L1; Jump L2; L1:]) is folded into a
      reversed branch ([Branch !c L2]). *)

val run : Flow.Func.t -> Flow.Func.t * bool
(** A run that reports no change returns its input itself ([==]): the
    driver's fix-loop memo and the liveness cache recognise a function by
    identity. *)
