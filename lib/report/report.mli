(** Offline reporting over the bench sweep's machine-readable outputs
    ([jumprepc report]), and the one implementation of the paper's
    Tables 4-6 and §5.2 statistics.  bench's [-t 4|5|6|bb] print the
    sections below over rows measured in-process, in the same format.

    IO-free: {!parse_results} reads the {e contents} of a
    [BENCH_results.json] document, renderers return markdown strings, and
    {!dat_files} returns (filename, contents) pairs. *)

type cache_row = {
  cr_config : string;
  cr_size_kb : int;
  cr_assoc : int;
  cr_ctx : bool;  (** context switching simulated *)
  cr_miss : float;
  cr_fetch : int;
}

type row = {
  program : string;
  level : string;  (** ["SIMPLE"], ["LOOPS"] or ["JUMPS"] *)
  machine : string;  (** ["risc"] or ["cisc"] *)
  static_instrs : int;
  static_ujumps : int;
  static_nops : int;
  code_bytes : int;
      (** total code bytes under the machine's encoding model (0 when the
          document predates the field) *)
  dyn_instrs : int;
  dyn_ujumps : int;
  dyn_nops : int;
  dyn_transfers : int;  (** executed branch points *)
  output_ok : bool;
  timed_out : bool;
  caches : cache_row list;
}

type doc = { rows : row list; counters : (string * int) list }

(** Parse a [BENCH_results.json] document (the bench driver's [--json]
    output). *)
val parse_results : string -> (doc, string) result

val machines : doc -> string list
val programs : doc -> string list

(** Programs with all three levels measured on the machine — tasks lost
    to chaos drop out of comparisons instead of skewing them. *)
val complete_programs : doc -> string -> string list

val find : doc -> program:string -> level:string -> machine:string -> row option

(** {1 Statistics}

    The arithmetic behind every table, shared with the ablations of
    [Harness.Tables]. *)

(** Arithmetic mean; 0 for the empty list. *)
val mean : float list -> float

(** Population standard deviation; 0 for fewer than two values. *)
val stddev : float list -> float

(** [change now base]: percent change of [now] relative to [base]. *)
val change : int -> int -> float

(** [pct a b]: [a] as a percent of [b]. *)
val pct : int -> int -> float

(** Dynamic instructions per executed branch point, from the row's
    counts.  (The JSON's [instrs_between_branches] field is rounded to
    three decimals and is not read.) *)
val instrs_between_branches : row -> float

(** Mean over {!complete_programs} of the per-program percent change of
    [field] at [level] vs SIMPLE — Table 5's (and the code-size
    section's) mean row. *)
val mean_change :
  doc -> machine:string -> level:string -> (row -> int) -> float

(** Mean over {!complete_programs} of the [level] vs SIMPLE delta of the
    [kb] cache with context switching [ctx]: the miss ratio in
    percentage points, or the fetch cost in percent (Table 6). *)
val cache_delta :
  doc ->
  machine:string ->
  kb:int ->
  ctx:bool ->
  level:string ->
  [ `Miss | `Cost ] ->
  float

(** {1 Markdown} *)

(** Table 4 shape: percent of instructions that are unconditional jumps,
    static and dynamic, per level: mean and population standard
    deviation over programs. *)
val table4 : doc -> string

(** Table 5 shape: static/dynamic instruction counts per program with
    the % change vs SIMPLE, and the mean of the changes. *)
val table5 : doc -> string

(** Table 6 shape: miss-ratio and fetch-cost deltas vs SIMPLE per cache
    size, context switching off and on. *)
val table6 : doc -> string

(** §5.2: mean dynamic instructions between branches per machine and
    level, and the RISC's executed no-ops at SIMPLE and JUMPS. *)
val section_5_2 : doc -> string

(** The full markdown report: verification verdict, then Table 4,
    Table 5, static code size in bytes (when every row carries
    [code_bytes]), Table 6 and §5.2. *)
val render : ?title:string -> doc -> string

(** Markdown delta report between two sweeps: rows present in only one,
    rows whose static/dynamic counts changed, and the Table-5 means side
    by side. *)
val compare_docs : ?name_a:string -> ?name_b:string -> doc -> doc -> string

(** Gnuplot-ready data files: per machine, [instrs_MACHINE.dat]
    (per-program % changes) and [cache_MACHINE.dat] (per-size deltas,
    ctx switching off), tab-separated with a [#] header line. *)
val dat_files : doc -> (string * string) list

(** Markdown summary of a telemetry JSONL event stream
    ([--trace-out events.jsonl]): event counts by kind. *)
val summarize_events : string -> string
