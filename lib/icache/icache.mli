(** Instruction-cache simulation (paper §5.3).

    Parameters follow the paper exactly: direct-mapped, 16-byte lines,
    sizes 1/2/4/8 KiB; a hit costs 1 time unit and a miss 10; fetch cost is
    [hits * 1 + misses * 10]; with context switching enabled the entire
    cache is invalidated every 10,000 time units (values from Smith's cache
    studies, as in the paper).

    An instruction fetch touches the line containing its first byte and,
    when it straddles a line boundary (variable-length CISC instructions),
    the following line too.  A fetch of [size <= 0] counts as one byte. *)

type config = {
  size_bytes : int;  (** total capacity; must be a multiple of [line_bytes] *)
  line_bytes : int;  (** 16 in the paper *)
  context_switches : bool;  (** invalidate every 10,000 time units *)
  assoc : int;
      (** associativity (LRU within a set); the paper's caches are
          direct-mapped, i.e. [assoc = 1] *)
}

(** The paper's eight configurations: 1/2/4/8 KiB × context switches
    on/off, 16-byte lines, direct-mapped. *)
val paper_configs : config list

val config_name : config -> string

(** Many configurations fed by one fetch stream in a single pass — the
    library's one cache simulator (a single configuration is a bank of
    one).

    State lives in flat int arrays shared across configurations, and an
    access allocates nothing.  Statistics per configuration are equal to
    feeding the same stream through one dedicated cache per configuration
    — a property the test suite checks against a per-cache oracle. *)
module Bank : sig
  type t

  val create : config list -> t
  val reset : t -> unit
  val access : t -> addr:int -> size:int -> unit

  (** Configurations in creation order; the [int] arguments below index
      this array. *)
  val configs : t -> config array

  val hits : t -> int -> int
  val misses : t -> int -> int
  val accesses : t -> int -> int

  (** [misses / accesses], 0 when idle. *)
  val miss_ratio : t -> int -> float

  (** [hits * 1 + misses * 10] (time units). *)
  val fetch_cost : t -> int -> int
end
