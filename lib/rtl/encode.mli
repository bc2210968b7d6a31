(** Branch-displacement encoding for the CISC machine.

    Selects a short (2-byte), word (4-byte, the legacy fixed size) or
    long (6-byte) form for every direct [Branch]/[Jump] in a linearized
    function, using the fixpoint-free linear-time pessimistic algorithm:
    compute addresses with every eligible transfer at its longest form,
    then commit each one to the smallest form whose range covers its
    pessimistic displacement.  Shrinking can only reduce displacements,
    so the chosen forms stay valid without relaxation iterations.

    The solver is purely static — it never changes an instruction, only
    how many bytes the assembler charges it — so a plan is attached to a
    function as advisory metadata and dropped whenever the block array
    changes. *)

type form = Short | Word | Long

val form_bytes : form -> int
val form_name : form -> string

(** Does this instruction get a displacement field?  True exactly for
    direct [Branch]/[Jump]. *)
val eligible : Rtl.instr -> bool

type plan = private {
  forms : form option array;
      (** per linear index; [None] for non-eligible instructions *)
  sizes : int array;  (** per linear index, chosen forms applied *)
  total : int;  (** code bytes under the plan *)
  fixed_total : int;  (** code bytes under the fixed-size model *)
  shorts : int;
  words : int;
  longs : int;
}

val length : plan -> int

(** A fresh copy of the per-index size table. *)
val sizes : plan -> int array

(** Solve for a linearized function: the instruction stream and the
    label->index map (as produced by the assembler's linearization). *)
val solve : Machine.t -> Rtl.instr array -> int Label.Map.t -> plan

(** Shape check: the plan was solved for a code array of this length
    with eligible instructions in exactly these positions.  The
    assembler refuses a plan that fails this. *)
val matches : plan -> Rtl.instr array -> bool
