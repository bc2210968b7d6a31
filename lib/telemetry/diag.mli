(** Typed pipeline diagnostics.

    The optimization pipeline's error channel: instead of scattered
    [failwith]s, passes raise {!exception-Error} carrying a structured
    diagnostic, and the defensive driver ({!Opt.Driver}) converts verifier
    failures, pass exceptions and oracle mismatches into collected
    diagnostics so one bad pass on one function no longer aborts the whole
    compile.  The CLI prints collected diagnostics as warnings and, under
    [--strict], exits nonzero when any error-severity diagnostic was
    recorded. *)

type code =
  | Malformed_ir  (** the IR verifier reported violations *)
  | Pass_raised  (** a pass raised an exception *)
  | Oracle_mismatch  (** differential execution diverged after a pass *)
  | No_convergence  (** an iteration cap was hit without a fixpoint *)
  | Timeout  (** simulator step budget exhausted *)
  | Internal  (** an internal invariant was violated *)
  | Budget_exhausted
      (** a {!Budget} limit tripped; the driver degraded the function to
          the next-cheaper configuration instead of aborting *)
  | Parse_error  (** a lexical or syntax error in a C-subset source file *)
  | Semantic_error  (** a code-generation (semantic) error *)
  | Io_error  (** a file could not be read or written *)
  | Const_branch  (** a conditional branch statically always/never taken *)
  | Loop_replication  (** replication copied a whole loop body *)
  | Code_growth  (** estimated code growth from replicating a jump *)
  | Jump_residual  (** an unconditional jump replication could not remove *)
  | Certify_refuted
      (** the static translation validator proved a pass's output does not
          simulate its input; carries the counterexample path *)
  | Uncertifiable_pass
      (** the validator could not decide a pass (renaming, restructuring,
          or symbolic values it cannot ground): verdict Unknown *)
  | Certifier_timeout
      (** the validator's pair budget ran out before closure *)
  | Analysis_diverged
      (** a dataflow analysis exhausted its visit budget without reaching
          a fixpoint (a non-monotone transfer function) *)
  | Store_corrupt
      (** a campaign result-store entry failed its integrity check
          (truncated or bit-flipped); the result is recomputed *)

type severity = Warn | Err

type t = {
  code : code;
  severity : severity;
  func : string;  (** function being compiled, or [""] *)
  pass : string;  (** pass that produced the diagnostic, or [""] *)
  message : string;
}

(** Raised by pipeline code in place of [failwith]; the driver's pass
    boundary catches it and quarantines the raising pass. *)
exception Error of t

val code_name : code -> string

val make :
  ?severity:severity -> code -> func:string -> pass:string -> string -> t

(** [error code ~func ~pass fmt]: raise {!exception-Error} with severity
    {!Err} and a formatted message. *)
val error :
  code -> func:string -> pass:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** ["[code] func/pass: message"], the warning line the CLI prints. *)
val to_string : t -> string

(** The diagnostic as a JSON object: code, severity, func, pass,
    message. *)
val to_json : t -> Json.t

(** Whether any diagnostic in the list is error-severity (what [--strict]
    keys its exit code on). *)
val has_errors : t list -> bool
