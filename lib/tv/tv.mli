(** Static translation validation for the optimizer.

    After a pass transforms a function, {!certify_pass} tries to prove —
    without running anything — that the output {e simulates} the input:
    every path through the transformed CFG performs the same sequence of
    observable effects (memory writes, calls, frame setup/teardown,
    returns) as the corresponding path through the original, and branch
    decisions correspond under the same entry state.

    The checker builds a product of the two CFGs: a worklist of block
    pairs anchored at the entry pair, each carrying the set of registers
    on which the two sides are known to disagree (values private to one
    side, e.g. dead temporaries).  Each pair's blocks are summarized into
    a normalized symbolic store (the same versioned value-numbering idea
    as {!Analysis.Valnum}, which is also reused to pre-normalize each
    block) plus an ordered effect list; {!Analysis.Copyconst} facts seed
    registers both sides know to be the same constant, discharging branch
    conditions the pass itself folded.

    Verdicts are three-valued.  {e Certified} means every reachable pair
    matched exactly.  {e Refuted} carries a counterexample path of block
    pairs from the entry to a pair whose {e ground} observable effects
    provably differ — the transformed function performs a different store,
    call, or return on that path.  Everything else — renamed registers,
    restructured loops, symbolic values the checker cannot ground — is
    {e Unknown}: the conservative answer, never a conviction. *)

open Flow

type verdict =
  | Certified
  | Unknown of { reason : string; timeout : bool }
  | Refuted of { reason : string; path : string list }
      (** [path] is the counterexample: ["old/new"] block-label pairs from
          the entry pair to the refuting pair, in execution order. *)

(** One certification result, as recorded by the driver. *)
type record = { vfunc : string; vpass : string; verdict : verdict }

val verdict_name : verdict -> string

(** [certify_pass ~before ~after ()] checks that [after] simulates
    [before].  [fuel] bounds the number of pair summarizations (default
    {!default_fuel}); exhaustion yields [Unknown {timeout = true}].
    Never raises.  Passes structurally outside the relation (register
    renaming, loop restructuring) never reach it: the driver's pass table
    records them Unknown with a reason. *)
val certify_pass :
  ?fuel:int -> before:Func.t -> after:Func.t -> unit -> verdict

val default_fuel : int

(** Copyconst facts for a function ([None] when the analysis diverged),
    memoized by {e physical} identity in an {!Analysis.Cache}: a mutated
    function ([Func.with_blocks] returns a fresh identity) never reuses
    stale facts.  Exposed for the cache regression test. *)
val copyconst_facts : Func.t -> Analysis.Copyconst.facts array option
