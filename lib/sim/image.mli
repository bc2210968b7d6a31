(** Data-segment layout and the simulated memory.

    Memory map: low addresses up to [data_base] are unmapped (so null
    dereferences fault), globals live from [data_base] up, and the stack
    grows down from [size].  Code addresses (from {!Asm}) are a separate
    space used only for instruction-cache simulation. *)

type t

exception Fault of string

(** [build prog] lays out the globals and returns a fresh memory.
    Default [size] 4 MiB, [data_base] 0x1000. *)
val build : ?size:int -> ?data_base:int -> Flow.Prog.t -> t

(** [build_scratch prog] is {!build} on a recycled process-wide buffer:
    instead of allocating and zeroing the whole memory, it zeroes only
    the pages the {e previous} scratch image dirtied.  Layout and
    contents are identical to a fresh {!build}.

    The previous scratch-built image becomes invalid — use this only for images that are private to one run and
    discarded before the next (the interpreter's). *)
val build_scratch : ?size:int -> ?data_base:int -> Flow.Prog.t -> t

val size : t -> int

(** Address of a global symbol.  @raise Not_found if unknown. *)
val symbol : t -> string -> int

(** Loads normalize to signed 32 bits; byte loads zero-extend.
    @raise Fault on out-of-range addresses. *)
val load_word : t -> int -> int

val load_byte : t -> int -> int
val store_word : t -> int -> int -> unit
val store_byte : t -> int -> int -> unit
