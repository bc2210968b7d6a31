(** Available expressions, as a bit-vector problem for {!Bitvec.solve}.

    The fact at a block's entry is the set of pure register expressions
    ([Binop]/[Unop]/[Lea] over registers and immediates) computed on every
    path from the entry and not invalidated since.  [Opt.Gcse] builds its
    redundancy elimination on these facts, replaying each block with
    {!fold}.

    A solve ranks the function's keys once, in [compare] order, and key
    [k] is bit [k] of every set.  An instruction kills the keys that read
    a register it defines (one precomputed mask per register), then
    generates its own key unless the key reads its destination. *)

open Ir

(** Canonical key of a pure register expression (commutative operands are
    ordered). *)
type key =
  | Kbinop of Rtl.binop * Rtl.operand * Rtl.operand
  | Kunop of Rtl.unop * Rtl.operand
  | Klea of Rtl.addr

(** The key an instruction computes into a register, if any. *)
val key_of : Rtl.instr -> (Reg.t * key) option

type t

(** Every key computed anywhere in the function, in [compare] order: a
    key's index is its rank. *)
val keys : t -> key array

(** Keys available on entry to block [i], in rank order. *)
val avail_in : t -> int -> key list

(** Keys the instruction invalidates, in rank order: every key reading a
    register it defines. *)
val killed : t -> Rtl.instr -> key list

val stats : t -> Dataflow.stats

(** [fold t f i ~init] replays block [i] (the instructions it was solved
    on) from its entry set.  [f acc instr ~key ~avail ~generates] sees the
    rank of [key_of instr] ([-1] for none), whether that key is available
    just before [instr], and whether [instr] generates it — that is,
    whether the key does not read the destination ([d := d op c], the CISC
    two-address shape, kills its own key the moment it executes). *)
val fold :
  t ->
  ('a -> Rtl.instr -> key:int -> avail:bool -> generates:bool -> 'a) ->
  int ->
  init:'a ->
  'a

(** @raise Dataflow.Diverged after [max_visits] node visits. *)
val solve :
  ?max_visits:int -> graph:Dataflow.graph -> instrs:Rtl.instr list array -> unit -> t
