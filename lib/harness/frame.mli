(** Length-prefixed framing: a 4-byte big-endian payload length followed
    by that many payload bytes, capped at {!max_frame}: the codec of the
    pipes between {!Pool} and its worker processes. *)

(** Hard cap on a frame payload (16 MiB).  A peer announcing more is a
    protocol error, not an allocation. *)
val max_frame : int

(** [encode payload] is the 4-byte header plus [payload].
    @raise Invalid_argument past {!max_frame}. *)
val encode : string -> string

(** Incremental frame decoder.  Feed it arbitrary byte chunks; it yields
    complete payloads in order.  It never raises on wire input: an
    oversized length poisons the decoder and every later call returns
    the same [Error]. *)
type decoder

val decoder : unit -> decoder
val feed : decoder -> string -> unit

(** Bytes buffered but not yet returned as a frame (a non-zero value at
    close means a truncated frame). *)
val pending : decoder -> int

(** [Ok (Some payload)] when a complete frame is buffered, [Ok None] when
    more bytes are needed, [Error _] once poisoned. *)
val next : decoder -> (string option, string) result

(** Write all of [s] to [fd], looping over short writes. *)
val write_all : Unix.file_descr -> string -> unit
