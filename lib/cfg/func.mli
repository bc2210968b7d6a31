(** A function under compilation: a sequence of basic blocks.

    Block order in the array is {e positional} order: block [i] falls through
    to block [i+1] unless its last instruction is an unconditional transfer.
    [blocks.(0)] is the entry block; its label is never a branch target, so
    replication never copies the prologue. *)

open Ir

type block = { label : Label.t; instrs : Rtl.instr list }

type t

val name : t -> string

(** The block array in positional order.  Treat as read-only: build a new
    array and use {!with_blocks} to change a function. *)
val blocks : t -> block array

val lsupply : t -> Label.Supply.t
val vsupply : t -> Reg.Supply.t

(** @raise Invalid_argument on duplicate labels or an empty block array. *)
val make :
  name:string ->
  blocks:block array ->
  lsupply:Label.Supply.t ->
  vsupply:Reg.Supply.t ->
  t

(** Replace the block array, rebuilding the label index.  Any attached
    {!encoding} plan is dropped: it described the old linearization.
    @raise Invalid_argument on duplicate labels. *)
val with_blocks : t -> block array -> t

(** The advisory branch-displacement plan, when the displacement pass
    has run and no later pass touched the blocks. *)
val encoding : t -> Encode.plan option

(** Attach (or clear) a displacement plan.  The caller warrants that the
    plan was solved for this function's current linearization. *)
val set_encoding : t -> Encode.plan option -> t

(** Whether two functions have the same labels and the same RTLs in the
    same positional order.  Names, supplies and encoding plans are not
    compared. *)
val equal_blocks : t -> t -> bool

val num_blocks : t -> int
val block : t -> int -> block

(** Index of the block carrying a label.  @raise Not_found if absent. *)
val index_of_label : t -> Label.t -> int

val fresh_label : t -> Label.t
val fresh_reg : t -> Reg.t

(** Last instruction, when it is a control transfer. *)
val terminator : block -> Rtl.instr option

(** Whether control can flow off the block's end into the next one. *)
val falls_through : block -> bool

(** Total number of RTLs in the function. *)
val num_instrs : t -> int

(** Number of RTLs in one block. *)
val block_size : block -> int

val map_blocks : (block -> block) -> t -> t

(** Rebuild each block's instruction list. *)
val map_instrs : (Rtl.instr list -> Rtl.instr list) -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
