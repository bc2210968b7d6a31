(** Content-addressed result keys.

    A key is the MD5 of a length-prefixed, name-tagged concatenation of
    its components — injective, so two keys collide only when every
    component is byte-identical.  Components always include the compiler
    {!fingerprint} (pass-pipeline signature + [git describe]): a result
    computed by a different compiler can never be reused.

    Keys are pure functions of their inputs — stable across processes,
    restarts and machines — which is what makes the store's entries
    shareable between the parent, its worker processes, and a later
    resumed run (the QCheck suite holds them to it). *)

(** [hex ~kind components] — the 32-char lowercase MD5 hex of the
    injective encoding of [kind] plus the ordered [(name, value)]
    components. *)
val hex : kind:string -> (string * string) list -> string

(** Pass-pipeline signature + memoized [git describe --always --dirty]
    (["no-git"] outside a repository). *)
val fingerprint : unit -> string

(** Key of one sweep measurement: program name/source/input/expectation,
    level, machine, the paper cache-config list, engine, compiler
    fingerprint. *)
val measure :
  engine:Sim.Engine.kind ->
  Programs.Suite.benchmark ->
  Opt.Driver.level ->
  Ir.Machine.t ->
  string

(** Key of one fuzz seed's verdict (kind ["fuzz/2"]: the entry is the
    [fuzz] op's reply). *)
val fuzz :
  max_steps:int -> verify:bool -> inject_fault:string option -> int -> string

(** Key of one daemon measure payload (source bytes, input, machine). *)
val daemon_measure : source:string -> input:string -> machine:string -> string

(** Key of one certify run over a benchmark. *)
val certify :
  level:Opt.Driver.level ->
  machine:Ir.Machine.t ->
  inject_fault:string option ->
  Programs.Suite.benchmark ->
  string
