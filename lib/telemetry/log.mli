(** Structured optimization event log.

    A [t] is a sink plus a monotonic sequence counter.  Instrumented
    code calls {!emit} with a thunk; when the sink is {!val:null} the
    thunk is never forced, so the hot path pays a single branch.  Events carry wall-clock timestamps (milliseconds
    since the log was created) and a per-log sequence number.

    Sinks:
    - [Null]: discard everything (the default; allocation-free);
    - [Jsonl oc]: one JSON object per line on [oc] — the machine format;
    - [Memory]: buffer events in order for in-process inspection
      ({!events}) — what the tests use. *)

(** Why a replication decision went the way it did (paper steps 2–6 plus
    the section-6 extensions).  [Loop_copied] marks an {e applied}
    replication whose sequence was extended to a complete natural loop
    (step 3); the other constructors explain skips and rollbacks. *)
type reason =
  | Irreducible  (** every candidate left an irreducible flow graph (step 6) *)
  | Size_cap  (** function over [size_cap], or all candidates over [max_rtls] *)
  | Indirect_gated
      (** the only candidates end in an indirect jump and
          [replicate_indirect] is off *)
  | Loop_copied  (** applied via a loop-completed sequence (step 3) *)
  | No_path  (** no candidate sequence exists (self loop, unreachable exit) *)

val reason_to_string : reason -> string

(** Function shape before/after one pass. *)
type delta = {
  instrs_before : int;
  instrs_after : int;
  blocks_before : int;
  blocks_after : int;
  ujumps_before : int;  (** blocks ending in [Jump] or [Ijump] *)
  ujumps_after : int;
}

type event =
  | Pass_begin of { func : string; pass : string }
  | Pass_end of {
      func : string;
      pass : string;
      changed : bool;
      delta : delta;
      elapsed_ms : float;
    }
  | Replication_applied of {
      func : string;
      jump_from : string;  (** label of the block ending in the jump *)
      jump_to : string;  (** the jump's target label *)
      mode : string;  (** ["favor-returns"], ["favor-loops"] or ["loop-test"] *)
      seq : int list;  (** replicated block indices, in splice order *)
      cost : int;  (** RTLs added *)
      loop_completed : bool;  (** step-3 loop completion kicked in *)
    }
  | Replication_rolled_back of {
      func : string;
      jump_from : string;
      jump_to : string;
      reason : reason;
    }
  | Fixpoint_iteration of { func : string; iteration : int; changed : bool }
  | Fixpoint_diverged of { func : string; iterations : int; last_pass : string }
      (** the Figure-3 loop hit its iteration cap while [last_pass] still
          reported a change and the last round did not end on its own
          input *)
  | Pass_quarantined of {
      func : string;
      pass : string;
      code : string;  (** a {!Diag.code} name *)
      violations : string list;  (** verifier violations, if any *)
    }  (** the pass boundary rolled the function back to its last-good IR *)
  | Regalloc_spill of { func : string; reg : string; round : int }
  | Sim_progress of { instrs : int }
  | Warning of { message : string }

type sink = Null | Jsonl of out_channel | Memory

type t

(** The shared disabled log.  [emit null f] never forces [f]. *)
val null : t

val make : sink -> t

(** False exactly for the [Null] sink — the one branch disabled costs. *)
val enabled : t -> bool

(** Force the thunk, stamp the event and hand it to the sink. *)
val emit : t -> (unit -> event) -> unit

(** Events emitted so far (any sink; 0 forever on [null]). *)
val emitted : t -> int

(** Buffered events, oldest first.  Empty unless the sink is [Memory]. *)
val events : t -> event list

val flush : t -> unit

(** One event as a JSON object — what the [Jsonl] sink renders, one per
    line. *)
val event_to_json : seq:int -> t_ms:float -> event -> Json.t
