(** A tiny dependency-free JSON value: one renderer shared by every
    machine-readable emission path (diags, [lint --json], [explain
    --json], [report], the profiler and metrics snapshots, the trace
    export), plus a strict parser for reading our own documents back
    ([BENCH_results.json], telemetry JSONL).

    [Raw] splices an already-rendered JSON fragment verbatim — the bridge
    for legacy string producers ({!Diag.to_json},
    [Harness.Measure.to_json]) so their byte format is preserved
    exactly.  The parser never produces [Raw]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string  (** pre-rendered JSON, spliced verbatim *)

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

(** [get_float] accepts [Int] too (JSON does not distinguish them). *)
val get_float : t -> float option

val get_bool : t -> bool option

(** JSON string quoting, surrounding quotes included. *)
val escape : string -> string
