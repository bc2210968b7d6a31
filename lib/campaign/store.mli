(** On-disk content-addressed result store.

    Layout under the store directory ([_campaign] by default):

    {v
    objects/<k0k1>/<key>.json   committed entries, sharded by key prefix
    tmp/                        in-progress writes (atomic-rename staging)
    journal                     append-only "start KEY" / "done KEY" lines
    v}

    An entry file is an integrity header —
    ["jumprep-store 1 <payload-bytes> <md5hex>\n"] — followed by the JSON
    payload.  {!commit} stages the bytes in [tmp/] and [rename]s them
    into place, so readers (including concurrent worker processes and a
    campaign resumed after SIGKILL) only ever observe absent or complete
    entries.  A truncated or bit-flipped entry fails the header check and
    surfaces as {!Corrupt} carrying a typed [store-corrupt] diagnostic —
    the caller recomputes; nothing crashes.

    The journal is the in-flight manifest: {!lease} appends
    ["start KEY"] before a computation, {!commit} appends ["done KEY"]
    after the rename.  Entries started but never done mark work that was
    in flight when a campaign died ({!pending}); the journal is advisory
    only — resume correctness rests on the committed objects.

    A handle holds only the directory; [O_APPEND] journal writes and
    rename-into-place commits are safe across processes. *)

type t

type lookup =
  | Hit of Telemetry.Json.t
  | Miss
  | Corrupt of Telemetry.Diag.t
      (** entry present but failed integrity/shape checks; recompute *)

val default_dir : string

(** Open (and, by default, create) a store rooted at [dir]. *)
val open_ : ?create:bool -> string -> t

(** Look up a committed entry.  Never raises: unreadable, truncated or
    corrupted entries return {!Corrupt}. *)
val find : t -> string -> lookup

(** Record [key] as in-flight in the journal. *)
val lease : t -> string -> unit

(** Atomically commit an entry: stage in [tmp/], rename into place,
    journal [done].  Overwrites any previous entry for [key]. *)
val commit : t -> key:string -> Telemetry.Json.t -> unit

(** [note_corrupt key msg] — the [store-corrupt] diagnostic for a
    well-formed-but-wrong entry (bad shape after a {!Hit}): the caller
    recomputes it. *)
val note_corrupt : string -> string -> Telemetry.Diag.t

(** Keys journaled [start] without a matching [done]. *)
val pending : t -> string list

(** [(entries, total payload bytes)] currently committed. *)
val disk_usage : t -> int * int

(** Garbage collection: delete staged [tmp/] strays, compact the journal
    to just the still-pending leases, and — given [max_entries] — evict
    the oldest committed entries beyond that count.  Returns
    [(evicted, tmp_removed)]. *)
val gc : ?max_entries:int -> t -> int * int
