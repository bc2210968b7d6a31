(** Assembly: linearized machine code with addresses.

    Assembling a {!Flow.Func.t} lays its blocks out in positional order and,
    on the RISC model, performs delay-slot filling — the final pass of the
    paper's Figure 3.  Every transfer of control on the RISC gets a delay
    slot, filled in order of preference:

    + the instruction that preceded the transfer, when moving it past the
      transfer cannot change what the transfer's decision reads;
    + for conditional branches and jumps, the first instruction of the
      target block, with the branch retargeted past it — annulled for
      conditional branches (the slot executes only when the branch is
      taken: the SPARC annul bit);
    + an explicit [Nop].

    The interpreter executes a normal slot after the transfer decision and
    before control moves, for taken and untaken branches alike; an annulled
    slot is fetched but squashed when its branch falls through. *)

open Ir

type afunc = {
  aname : string;
  code : Rtl.instr array;  (** linear instruction stream *)
  addrs : int array;  (** byte address of each instruction *)
  sizes : int array;  (** byte size of each instruction *)
  label_pos : int Label.Map.t;  (** label -> instruction index *)
  annulled : bool array;
      (** slot positions filled from the branch target: the slot executes
          only when the branch is taken (SPARC annul bit) *)
  target_override : int array;
      (** for a transfer at [k] whose slot was filled from its target,
          [target_override.(k)] is the instruction index to resume at
          (just past the copied instruction); [-1] otherwise *)
  base : int;  (** address of the first instruction *)
  end_addr : int;  (** first address past the function *)
}

type t = {
  machine : Machine.t;
  funcs : afunc list;
  code_base : int;
}

(** Index of [l] in [f].  @raise Not_found if the label is unknown. *)
val find_label : afunc -> Label.t -> int

val find_func : t -> string -> afunc option

(** Lay a function's blocks out in positional order: the linear
    instruction stream and the label->index map.  This is the exact
    linearization {!assemble} starts from, exported so the displacement
    pass solves against the same stream the assembler will price. *)
val linearize : Flow.Func.t -> Rtl.instr array * int Label.Map.t

(** Assemble a whole program.  [code_base] is the address of the first
    function (default 0x100000). *)
val assemble : ?code_base:int -> Machine.t -> Flow.Prog.t -> t

(** Static instruction count (nops included). *)
val static_instrs : t -> int

(** Static count of unconditional jumps ([Jump] plus [Ijump]). *)
val static_ujumps : t -> int

(** Static count of [Nop] instructions (delay-slot padding). *)
val static_nops : t -> int

(** Total code bytes (sum of instruction sizes, alignment padding
    excluded).  On CISC this reflects any attached displacement plans;
    on RISC it is always [4 * static_instrs]. *)
val code_bytes : t -> int

(** Map every instruction's address to its owning function's name and the
    instruction itself — the lookup a tracer or profiler needs when hooking
    {!Engine.run}'s [on_fetch]. *)
val addr_index : t -> (int, string * Rtl.instr) Hashtbl.t

val pp_afunc : Format.formatter -> afunc -> unit
