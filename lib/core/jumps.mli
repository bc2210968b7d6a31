(** JUMPS: generalized code replication (paper §4).

    One invocation scans the function's unconditional jumps (those present
    on entry) and replaces each with a replicated block sequence when legal:

    + build shortest-path tables (step 1);
    + for each jump in block [B] to target [T], form the two candidate
      sequences — {e favoring returns} (cheapest path from [T] to any
      return block) and {e favoring loops} (cheapest path from [T] back to
      the block positionally following [B]) — and order them by the
      configured heuristic (step 2);
    + complete natural loops entered by a sequence (step 3);
    + splice the copies, adjusting control flow ({!Replicate}) (steps 4–5);
    + roll the replication back if the flow graph became irreducible,
      trying the other candidate first (step 6).

    The driver re-invokes [run] until it reports no change, and once more
    with [allow_irreducible = true] as the final invocation (paper §5.1). *)

type heuristic =
  | Shorter  (** pick the candidate that adds fewer RTLs (default) *)
  | Favor_returns
  | Favor_loops

type config = {
  heuristic : heuristic;
  max_rtls : int option;
      (** cap on one replication sequence's size, in RTLs (paper section 6) *)
  allow_irreducible : bool;
      (** skip the reducibility check (final invocation only) *)
  size_cap : int;
      (** stop replicating when the function exceeds this many RTLs *)
  replicate_indirect : bool;
      (** allow sequences terminated by an indirect jump — the paper's
          section-6 extension (the jump table itself is shared) *)
}

val default_config : config

(** [run config func] returns the transformed function and whether anything
    changed.  With [log], every per-jump decision is reported: a
    [Replication_applied] event for each splice (with the chosen sequence,
    mode and cost) and a [Replication_rolled_back] event with the
    {!Telemetry.Log.reason} for each jump left in place.  With [budget],
    the per-jump loop calls {!Telemetry.Budget.check} before each attempt,
    so a passed deadline raises
    {!Telemetry.Budget.Exhausted} between attempts (never mid-splice — the
    function threaded so far is simply discarded by the caller). *)
val run :
  ?log:Telemetry.Log.t ->
  ?budget:Telemetry.Budget.t ->
  config ->
  Flow.Func.t ->
  Flow.Func.t * bool

(** Statistics helper: labels of blocks ending in an unconditional [Jump]
    with their targets. *)
val uncond_jumps : Flow.Func.t -> (Ir.Label.t * Ir.Label.t) list

(** What would happen to one unconditional jump, without transforming. *)
type decision =
  | Replicated of {
      mode : string;  (** ["favor-returns"] or ["favor-loops"] *)
      seq : int list;  (** block indices of the replicated sequence *)
      cost : int;  (** RTLs the copy would add *)
      loop_completed : bool;  (** step-3 loop completion extended the copy *)
    }
  | Not_replicated of Telemetry.Log.reason

val decision_to_string : decision -> string

(** Classify every unconditional jump of [func] against [config] (default
    {!default_config}): the sequence a replication would take, or the
    concrete reason none is legal.  Pure — the function is not changed. *)
val explain :
  ?config:config ->
  Flow.Func.t ->
  ((Ir.Label.t * Ir.Label.t) * decision) list
