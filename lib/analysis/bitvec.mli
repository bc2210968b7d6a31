(** Sets of small non-negative integers packed into [int array]s, and the
    worklist solver for gen/kill problems over them.  {!Live} (registers,
    backward, union) and {!Avail} (expression keys, forward, intersection)
    are its instances.

    A set of [words] ints holds element [k] as bit [k mod bits_per_word]
    of word [k / bits_per_word].  A solve keeps one set per node in a flat
    array: node [i]'s set starts at [i * words]. *)

(** Bits used per int of a set. *)
val bits_per_word : int

(** [words_for top] is the number of words a set needs to hold [top]. *)
val words_for : int -> int

(** [get bits off k] is bit [k] of the set stored at [bits.(off ..)];
    [set] and [clear] update it in place. *)
val get : int array -> int -> int -> bool

val set : int array -> int -> int -> unit
val clear : int array -> int -> int -> unit

(** [union_into dst doff src soff words] ORs [src.(soff ..)] into
    [dst.(doff ..)], over [words] ints. *)
val union_into : int array -> int -> int array -> int -> int -> unit

(** How the facts flowing into a node combine: [Union] for may-problems,
    [Inter] for must-problems. *)
type meet = Union | Inter

type result = {
  input : int array;
      (** per-node meet of the facts flowing in; a node without in-edges
          (or never visited) has the empty set *)
  output : int array;  (** [gen lor (input land lnot kill)] *)
  stats : Dataflow.stats;
}

(** [solve ~direction ~meet ~graph ~words ~gen ~kill ~init ()] iterates
    [output = gen lor (input land lnot kill)] to a fixpoint.  [gen] and
    [kill] hold one set per node; [init] (one set) is every node's output
    before its first visit — empty for may-problems, the universe for
    must-problems.  The schedule is exactly {!Dataflow.Solver}'s (reverse
    postorder seed, postorder for [Backward]; FIFO; a node queued at most
    once at a time; the same visit budget), so [stats.visits] equals the
    generic solver's on the same problem.

    @raise Dataflow.Diverged after [max_visits] node visits; [name]
    identifies the analysis in the message. *)
val solve :
  ?name:string ->
  ?max_visits:int ->
  direction:Dataflow.direction ->
  meet:meet ->
  graph:Dataflow.graph ->
  words:int ->
  gen:int array ->
  kill:int array ->
  init:int array ->
  unit ->
  result
