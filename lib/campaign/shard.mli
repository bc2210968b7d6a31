(** The worker side of {!Harness.Pool}, under the name campaign workers
    ([jumprepc worker], [bench/main.exe --worker], perfbench's) use. *)

(** Serve framed requests from stdin to stdout until EOF
    ({!Harness.Pool.serve}).  [handler] returns the reply payload, or
    [None] to quit. *)
val serve : handler:(string -> string option) -> unit -> unit
