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

  (** One fetch.  The library feeds banks through {!access_block} (the
      engine's [~bank]); this per-fetch entry serves tests and tools
      that replay a recorded stream. *)
  val access : t -> addr:int -> size:int -> unit

  (** Per-slice memory for {!access_block}: a flat int array with a
      slot for each slice start in [\[0, n)]. *)
  type memo

  (** [memo n] covers slices starting below [n]; a slice starting at
      [lo >= n] is walked unmemoized ([memo 0] memoizes nothing). *)
  val memo : int -> memo

  (** [access_block t memo addrs sizes lo hi] feeds the fetches
      [(addrs.(j), sizes.(j))] for [j] in [\[lo, hi)], in order, with
      statistics exactly those of that many {!access} calls.

      A uniform bank (all configs direct-mapped, one power-of-two line
      size, power-of-two set counts) keeps an {e eviction epoch}: a
      value from a process-wide counter, redrawn on every tag write (a
      miss), every context-switch flush and every {!reset}.  A walk of
      the slice that leaves the epoch unchanged hit on every
      line-touch, and records the epoch and the touch count (a
      straddling fetch counts two) in the memo slot of [lo].
      While the epoch still holds, none of those lines has left any
      config, so the next call settles the slice as [touches] pending
      hits in O(1), provided no context-switch flush can come due within
      [touches] hit units; otherwise it walks again.  Epochs are never
      shared between banks or across a reset, so a memo may meet any
      bank.  A memo slot belongs to one slice: pass each [lo] with the
      same [hi], [addrs] and [sizes].  Other banks walk the slice
      through the per-fetch path. *)
  val access_block :
    t -> memo -> int array -> int array -> int -> int -> unit

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
