(** Generic monotone dataflow framework.

    One worklist solver serves the compiler's analyses: the client
    supplies a join-semilattice of facts, a flow graph, and a per-node
    transfer function; the solver iterates to a fixpoint in reverse
    postorder (postorder for backward problems) and returns the fact
    arrays.  {!Reaching} and {!Copyconst} are instances.  {!Live} and
    {!Avail}, the analyses the Figure-3 loop asks for every round, run the
    same schedule on dense bitsets in {!Bitvec.solve}.

    The graph is deliberately abstract (three functions and an order) so
    the engine has no dependency on [Flow]: [Flow.Cfg.graph] adapts a CFG,
    and clients may restrict edges (see {!restrict}) without touching the
    function under analysis. *)

type direction = Forward | Backward

type graph = {
  nodes : int;  (** node count; nodes are [0 .. nodes-1], entry is [0] *)
  succs : int -> int list;
  preds : int -> int list;
  rpo : int array;
      (** reverse postorder of the forward traversal from the entry;
          unreachable nodes may appear anywhere after the reachable ones *)
}

(** Drop every edge touching a node [keep] rejects (the node itself stays,
    isolated).  Must-analyses use this to ignore unreachable predecessors,
    whose facts would otherwise leak into a meet over real paths. *)
val restrict : graph -> keep:(int -> bool) -> graph

type stats = { visits : int  (** node evaluations until the fixpoint *) }

(** Raised when the visit budget is exhausted before a fixpoint: the
    iteration-bound diagnostic.  Monotone transfer functions on
    finite-height lattices always converge, so this fires only on a buggy
    (non-monotone) analysis — the pass boundary in [Opt.Driver] catches it
    and quarantines the offending pass. *)
exception Diverged of string

(** The visit budget: [max_visits] when given, else
    [max 4096 ((nodes + 1) * 256)]. *)
val budget : ?max_visits:int -> int -> int

(** Raise {!Diverged} with the iteration-bound message.  Shared by
    {!Solver} and {!Bitvec.solve}. *)
val diverged : ?name:string -> visits:int -> nodes:int -> 'a

module type LATTICE = sig
  type t

  val equal : t -> t -> bool

  (** Confluence operator ([union] for may-problems, [inter] for
      must-problems).  Only ever applied to facts flowing into the same
      node, so it need not be defined on unrelated values. *)
  val join : t -> t -> t
end

module Solver (L : LATTICE) : sig
  type result = {
    input : L.t array;
        (** per-node confluence of the facts flowing in: block-entry facts
            for a forward problem, block-exit facts for a backward one *)
    output : L.t array;  (** [transfer] applied to [input] *)
    stats : stats;
  }

  (** [solve ~direction ~graph ~empty ~init ~transfer ()] runs the
      worklist to a fixpoint.

      - [empty] is the input fact of a node with no in-edges (the entry
        for forward problems, exit nodes for backward ones);
      - [init n] is node [n]'s output fact before its first evaluation —
        bottom for may-problems, the universe for must-problems;
      - [transfer n fact] pushes a fact through node [n].

      @raise Diverged after [max_visits] node evaluations (default
      [max 4096 ((nodes + 1) * 256)]); [name] identifies the analysis in
      the divergence message (and in the [analysis-diverged] diagnostic
      the catchers emit). *)
  val solve :
    ?name:string ->
    ?max_visits:int ->
    direction:direction ->
    graph:graph ->
    empty:L.t ->
    init:(int -> L.t) ->
    transfer:(int -> L.t -> L.t) ->
    unit ->
    result
end
