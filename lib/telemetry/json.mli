(** A tiny dependency-free JSON value: the one renderer of every
    machine-readable output (diags, the event log, measurement rows,
    [explain --json], [certify --json], the profiler snapshot, the
    trace export, the worker replies), plus a strict parser for reading
    our own documents back ([BENCH_results.json], telemetry JSONL). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Fixed of int * float
      (** [Fixed (d, f)] renders [f] with exactly [d] decimals ([%.*f]):
          the fixed-decimal numbers of the results document, the event
          log and the profile.  The parser never produces it; it reads
          back as [Int] or [Float]. *)

(** Compact rendering: no whitespace, fields in the given order. *)
val to_string : t -> string

(** Strict parse of one JSON document ([Error] carries offset + reason).
    Numbers without [.]/[e] that fit an OCaml [int] come back as [Int];
    everything else numeric as [Float].  Never raises on any input:
    nesting beyond {!max_depth} levels is an [Error], not a
    [Stack_overflow] — the wire-protocol codec depends on this. *)
val parse : string -> (t, string) result

(** Maximum nesting depth {!parse} accepts (4096). *)
val max_depth : int

(** [member name (Obj ...)] is the named field, if any. *)
val member : string -> t -> t option

val to_list : t -> t list option
val get_string : t -> string option
val get_int : t -> int option

(** [get_float] accepts [Int] too (JSON does not distinguish them), and
    reads a [Fixed] as the decimal it renders — the value a parse of its
    rendering would give. *)
val get_float : t -> float option

val get_bool : t -> bool option
