(** Resource budgets.

    One budget bounds one unit of work (a compilation, a simulated run, an
    in-process pool task) along three axes — wall-clock time, interpreter
    fuel, and replication code growth.  Consumers call {!check} at
    natural safepoints: the interpreter's fuel accounting, the
    replication pass's per-jump loop, the driver's fixpoint iterations.
    Exhaustion is a typed, recoverable condition ({!exception-Exhausted}),
    not an abort: {!Opt.Driver} degrades the function to the
    next-cheaper configuration and the {!Harness.Pool} supervisor
    converts it into a structured task outcome. *)

type reason = Wall_clock | Fuel | Growth

exception Exhausted of reason

val reason_name : reason -> string

type t

(** [make ?deadline ?fuel ?growth ()] — [deadline] is relative seconds
    from now (stored as an absolute time); [fuel] bounds interpreter
    steps; [growth] bounds replication code growth as a percent of the
    function's input size (the paper's §6 trade-off: 0 forbids any
    growth, 60 allows the paper's worst observed case).  Omitted axes are
    unlimited. *)
val make : ?deadline:float -> ?fuel:int -> ?growth:int -> unit -> t

(** No limits (a shared constant). *)
val unlimited : t

val fuel : t -> int option
val growth : t -> int option

(** Raise {!exception-Exhausted} once the wall-clock deadline has passed.
    Fuel and growth are accounted by their consumers, not here. *)
val check : t -> unit
