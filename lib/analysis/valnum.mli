(** Versioned local value numbering: the fact domain of [Opt.Cse].

    The state tables available expressions (register computations and
    memory loads) keyed with the {e version} of every register they
    mention, so redefinitions invalidate entries without explicit killing;
    loads additionally embed a memory version bumped by stores and calls.

    States are persistent: [Opt.Cse] rewrites a block from the exit state
    of its unique predecessor (within an extended basic block) or from
    {!empty}, so sibling blocks start from the same parent state. *)

open Ir

type state

val empty : state

(** [rewrite st i] is [(st', i', changed)]: the state after [i], and [i]
    rewritten to a register move when its key is available in a register
    whose version still matches. *)
val rewrite : state -> Rtl.instr -> state * Rtl.instr * bool
