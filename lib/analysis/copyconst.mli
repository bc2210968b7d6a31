(** Copy and constant facts, as an instance of {!Dataflow}.

    A forward must-analysis mapping registers to what is known about their
    value at each program point: a compile-time constant, or a copy of
    another (still unmodified) register.  Facts meet by agreement — a
    register keeps a fact at a join only when every incoming edge carries
    the same one.  [Opt.Constfold.decidable_branches] evaluates [Cmp]
    operands against these facts, and the translation validator seeds
    agreed constants from them. *)

open Ir

type value = Const of int | Copy of Reg.t

(** Facts at a program point.  [Top] means the point is unreached
    (confluence identity); an environment maps registers to known values,
    absent registers being unknown. *)
type facts

val top : facts
val entry : facts

(** [false] only for {!top}. *)
val reached : facts -> bool

(** The fact recorded for a register, with copy chains resolved to a
    constant when possible. *)
val lookup : facts -> Reg.t -> value option

(** The compile-time integer value of an operand at this point, if known. *)
val operand_const : facts -> Rtl.operand -> int option

(** Push facts through one instruction. *)
val step : Rtl.instr -> facts -> facts

val equal : facts -> facts -> bool
val join : facts -> facts -> facts

type t = {
  fact_in : facts array;  (** facts at each block's entry *)
  stats : Dataflow.stats;
}

val solve :
  ?max_visits:int -> graph:Dataflow.graph -> instrs:Rtl.instr list array -> unit -> t
