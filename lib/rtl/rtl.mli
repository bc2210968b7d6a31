(** Register transfer lists: the machine-level IR of the back end.

    An instruction ({e RTL}) describes one machine instruction's effect.
    Both machine models share this representation; they differ in which
    operand shapes are legal ({!Machine.legal_instr}) and in instruction
    sizes.  Design notes:

    - Only {!Cmp} sets the condition-code pseudo register {!Reg.Cc}, and only
      {!Branch} reads it.  (Real 68020 arithmetic also sets CCs; modelling
      that would only constrain scheduling, which we do not exploit.)
    - Byte loads zero-extend; byte stores truncate.  The C subset compares
      characters as non-negative ints, so this loses nothing.
    - [Enter]/[Leave] are the one-instruction prologue/epilogue pairs
      (68020 [link]/[unlk], SPARC [save]/[restore]): [Enter n] saves the
      caller's frame pointer at [sp-4], sets [fp := sp] and [sp := sp - n];
      [Leave] undoes it. *)

type width = Byte | Word

(** Addressing modes.  [Indexed] is only legal on the CISC model. *)
type addr =
  | Based of Reg.t * int  (** [reg + disp] *)
  | Indexed of Reg.t * Reg.t * int * int
      (** [base + index*scale + disp], scale in {1,2,4} *)
  | Abs of string * int  (** global symbol + byte offset *)

type operand =
  | Reg of Reg.t
  | Imm of int
  | Mem of width * addr  (** memory source operand; CISC only inside ops *)

(** Destination of a data move: register or memory cell. *)
type loc = Lreg of Reg.t | Lmem of width * addr

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr

type unop = Neg | Not

type cond = Eq | Ne | Lt | Le | Gt | Ge

type instr =
  | Move of loc * operand
  | Lea of Reg.t * addr  (** load effective address *)
  | Binop of binop * loc * operand * operand
  | Unop of unop * loc * operand
  | Cmp of operand * operand  (** CC := compare a b *)
  | Branch of cond * Label.t  (** conditional; falls through when untaken *)
  | Jump of Label.t  (** unconditional *)
  | Ijump of Reg.t * Label.t array  (** indirect jump through table by index *)
  | Call of string * int  (** callee symbol, argument count *)
  | Ret
  | Enter of int  (** prologue; frame size in bytes *)
  | Leave  (** epilogue *)
  | Nop  (** delay-slot filler *)

val equal_instr : instr -> instr -> bool

(** {1 Conditions and operators} *)

(** Logical negation of a condition: [negate_cond Lt = Ge] etc. *)
val negate_cond : cond -> cond

(** Condition for the swapped comparison: [a cond b <=> b (swap_cond cond) a]. *)
val swap_cond : cond -> cond

val eval_cond : cond -> int -> int -> bool

(** 32-bit evaluation.  @raise Division_by_zero for [Div]/[Rem] by zero. *)
val eval_binop : binop -> int -> int -> int

val eval_unop : unop -> int -> int
val commutative : binop -> bool

(** {1 Register occurrences} *)

(** Registers read by the instruction (for [Call]: the argument registers and
    [sp]; for [Branch]: {!Reg.Cc}). *)
val uses : instr -> Reg.Set.t

(** Registers written (for [Call]: result register plus every caller-save
    register, i.e. the clobber set). *)
val defs : instr -> Reg.Set.t

(** [iter_uses f i] applies [f] to every element of [uses i] without
    building the set; a register read twice may be visited twice. *)
val iter_uses : (Reg.t -> unit) -> instr -> unit

(** [iter_defs f i] applies [f] to every element of [defs i], likewise. *)
val iter_defs : (Reg.t -> unit) -> instr -> unit

(** Apply [f] to every register occurrence, uses and defs alike. *)
val map_regs : (Reg.t -> Reg.t) -> instr -> instr

(** Registers mentioned by an address computation. *)
val addr_regs : addr -> Reg.Set.t

(** Registers mentioned by an operand (including a memory operand's
    address registers). *)
val operand_regs : operand -> Reg.Set.t

(** {1 Classification} *)

(** No memory write, no control transfer, no call, no prologue/epilogue.
    Pure instructions can be deleted when their destination is dead. *)
val is_pure : instr -> bool

val reads_mem : instr -> bool
val writes_mem : instr -> bool

(** Ends a basic block: [Branch], [Jump], [Ijump] or [Ret].  Calls return
    inline and do not terminate blocks. *)
val is_transfer : instr -> bool

(** Branch/jump targets mentioned by the instruction. *)
val targets : instr -> Label.t list

val map_labels : (Label.t -> Label.t) -> instr -> instr

(** {1 Printing} *)

val pp_instr : Format.formatter -> instr -> unit
val instr_to_string : instr -> string
