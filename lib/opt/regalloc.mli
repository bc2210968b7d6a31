(** Register allocation by graph coloring (paper: "register assignment" and
    "register allocation by register coloring").

    Chaitin-style: build the interference graph over virtual registers
    (move sources do not interfere with their destinations, giving free
    coalescing when colors coincide; calls clobber the caller-save set, so
    values live across calls end up in callee-save registers), simplify,
    select with move-biased color choice, and spill to fresh frame slots
    when needed, iterating until everything colors.

    Representation.  The graph is a bit matrix.  Columns use
    {!Analysis.Live.index}'s numbering ([Cc] 0, [Phys i] [1 + i], [Virt n]
    [1 + Conv.num_regs + n]) over the function's register supply, so "a
    definition interferes with everything live after it" is a word-level
    OR of the live-after set into the definition's row.  Each virtual
    present gets a row; so does each physical register, to collect the
    edges its definitions add until one transposition folds them into the
    virtual rows.  Degrees are popcounts; the removed set, the colors
    and the per-virtual move partners are arrays indexed by the virtual's
    rank; forbidden colors are an int mask over the physical registers.

    Determinism.  A round makes exactly these choices:
    - virtuals are visited in ascending index;
    - the low-degree worklist is seeded in that order and a node joins it
      when its degree falls to [k - 1];
    - with no low-degree node left, the spill candidate is the first
      strict minimum of [occ / (1 + degree)] (occ = instructions
      mentioning it) among the spillable virtuals, and among all
      remaining virtuals only when every one is unspillable (a spill
      temporary);
    - select takes the first color in [Conv.allocatable] order that no
      neighbour holds, preferring one a move partner holds.

    Postconditions: no virtual registers remain; the [Enter] frame size
    covers spill and callee-save slots; callee-save registers used by the
    assignment are saved after [Enter] and restored before each [Leave];
    register self-moves are deleted. *)

(** With [log], every spilled register is reported as a [Regalloc_spill]
    event carrying the coloring round that spilled it. *)
val run : ?log:Telemetry.Log.t -> Ir.Machine.t -> Flow.Func.t -> Flow.Func.t

(** {1 One coloring round}

    [run]'s rounds, exposed so tests can compare each against a
    reference allocator. *)

type graph

val build_graph : Flow.Func.t -> graph

(** The virtual registers the function mentions, ascending. *)
val virtuals : graph -> Ir.Reg.t list

(** The registers (virtual and physical) that interfere with a virtual
    of the graph.  @raise Invalid_argument for a register not in it. *)
val interference : graph -> Ir.Reg.t -> Ir.Reg.Set.t

type coloring

(** [unspillable] virtuals are chosen as spill candidates only when
    nothing else remains. *)
val color_graph : graph -> unspillable:Ir.Reg.Set.t -> coloring

(** [Some i] when the virtual was given [Phys i], [None] when it spilled.
    @raise Invalid_argument for a register not in the graph. *)
val color : coloring -> Ir.Reg.t -> int option

(** The virtuals that spilled. *)
val spilled : coloring -> Ir.Reg.Set.t
