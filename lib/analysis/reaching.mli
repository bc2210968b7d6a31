(** Reaching definitions, as an instance of {!Dataflow}.

    Two related fact families from one gen/kill construction:

    - {e may-reaching definition sites}: which numbered definition sites can
      reach each block's entry along some path (forward, union);
    - {e must-defined registers}: which registers have a definition on
      {e every} path from the entry to each block's entry (forward,
      intersection) — what def-before-use checking keys on.

    Pass a graph restricted to reachable blocks ({!Dataflow.restrict}) when
    facts along unreachable edges must not weaken the must-analysis. *)

open Ir
module Int_set : Set.S with type elt = int

(** One definition site: [reg] is defined by the instruction at position
    [index] of block [block]. *)
type site = { block : int; index : int; reg : Reg.t }

type t = {
  sites : site array;  (** site id -> site *)
  reach_in : Int_set.t array;
      (** site ids possibly reaching each block's entry *)
  must_defined_in : Reg.Set.t array;
      (** registers defined on every path to each block's entry *)
  stats : Dataflow.stats;  (** combined visits of both solves *)
}

val solve :
  ?max_visits:int -> graph:Dataflow.graph -> instrs:Rtl.instr list array -> unit -> t

(** Uses of [keep]-eligible registers that are not defined on every path
    from the entry, as [(block, instruction index, register)] in program
    order.  Only blocks accepted by [reachable] are scanned; definitions
    earlier in the same block count. *)
val uninitialized_uses :
  t ->
  instrs:Rtl.instr list array ->
  keep:(Reg.t -> bool) ->
  reachable:(int -> bool) ->
  (int * int * Reg.t) list
