type config = {
  size_bytes : int;
  line_bytes : int;
  context_switches : bool;
  assoc : int;
}

let hit_cost = 1
let miss_cost = 10
let flush_interval = 10_000

let paper_configs =
  List.concat_map
    (fun kb ->
      List.map
        (fun cs ->
          {
            size_bytes = kb * 1024;
            line_bytes = 16;
            context_switches = cs;
            assoc = 1;
          })
        [ true; false ])
    [ 1; 2; 4; 8 ]

let config_name c =
  Printf.sprintf "%dKb/%s/ctx-%s" (c.size_bytes / 1024)
    (if c.assoc = 1 then "direct" else Printf.sprintf "%d-way" c.assoc)
    (if c.context_switches then "on" else "off")

(* Eviction epochs are drawn from one process-wide counter, so no two
   banks (and no bank before and after a [reset]) ever share a value. *)
let epochs = Atomic.make 0
let fresh_epoch () = Atomic.fetch_and_add epochs 1 + 1

(* A bank feeds one fetch stream to many configurations in a single pass.
   Per-cache state lives in flat int arrays indexed by a per-config
   offset, and the hit/LRU scan is a plain loop over ints, so an access
   allocates nothing.  Each line a fetch touches is, per config:
   - first, if context switches are on and the config's accumulated time
     has reached its next flush, a full invalidation (the flush clock then
     catches up in whole intervals);
   - then a tick of the config's LRU clock and a scan of the line's set:
     a hit stamps its way; a miss fills the last free way scanned, else
     the least recently stamped one.
   [test/icache_oracle.ml] states the same rules as one plain cache per
   configuration, and the test suite holds every bank statistic equal to
   it. *)
module Bank = struct
  type bank = {
    configs : config array;
    offsets : int array;  (** start of each config's ways in [tags] *)
    lines_per : int array;
    num_sets : int array;
    assocs : int array;
    line_bytes : int array;
    line_shift : int array;  (** log2 of [line_bytes]; -1 if not a power of 2 *)
    set_mask : int array;  (** [num_sets - 1] when a power of 2, else -1 *)
    ctx : bool array;
    uniform_shift : int;
        (** line shift shared by {e all} configs when every one is
            direct-mapped with the same power-of-two line size and a
            power-of-two set count (the paper's eight geometries); -1
            otherwise.  Gates the fast path in [access]. *)
    tags : int array;
    stamps : int array;
    ticks : int array;
    bhits : int array;
    bmisses : int array;
    times : int array;
    next_flush : int array;
    (* Pending-hit memo (uniform banks only).  A fetch confined to one
       line that is resident in every config is a guaranteed hit
       everywhere — it can be tallied with one counter bump instead of a
       config loop.  [pending] holds such unmaterialized hits (one per
       config each); [headroom] bounds the run so no context-switch flush
       comes due while the per-config [times] are stale.  [last_line], the
       line of the latest access, is resident in every config, which
       spares the tag compares for a run of fetches within one line.
       Fed per fetch, that run is most fetches (72% on the paper sweep),
       and without this shortcut the bank's time on that stream rises by
       64% (ten perfbench pairs replaying it through [access], 2-vCPU
       Xeon VM).  Fed by superblocks ([access_block]), 90% of
       superblock executions settle by memo instead, and on the walks
       that remain the shortcut measured no difference. *)
    mutable last_line : int;
    mutable pending : int;
    mutable headroom : int;
    mutable epoch : int;
        (** Redrawn on every tag write (miss), context-switch flush and
            [reset] of a uniform bank: while it holds, no line has left
            any config.  Block memos ([access_block]) record it. *)
  }

  type t = bank

  (* Two ints per slice start [lo]: the epoch the slice last ran at with
     every touch a hit, and its line-touch count.  0 is never an epoch,
     so a fresh memo matches nothing. *)
  type memo = int array

  let memo n = Array.make (2 * n) 0

  let create config_list =
    let configs = Array.of_list config_list in
    let n = Array.length configs in
    let offsets = Array.make n 0 in
    let lines_per = Array.make n 0 in
    let num_sets = Array.make n 0 in
    let assocs = Array.make n 0 in
    let line_bytes = Array.make n 0 in
    let line_shift = Array.make n (-1) in
    let set_mask = Array.make n (-1) in
    let ctx = Array.make n false in
    let log2_exact x =
      let rec go s = if 1 lsl s = x then s else if 1 lsl s > x then -1 else go (s + 1) in
      if x > 0 then go 0 else -1
    in
    let total = ref 0 in
    for i = 0 to n - 1 do
      let c = configs.(i) in
      if c.size_bytes mod c.line_bytes <> 0 then
        invalid_arg "Icache.Bank.create: size not a multiple of the line size";
      if c.assoc < 1 then invalid_arg "Icache.Bank.create: associativity < 1";
      let lines = c.size_bytes / c.line_bytes in
      if lines mod c.assoc <> 0 then
        invalid_arg
          "Icache.Bank.create: lines not a multiple of the associativity";
      offsets.(i) <- !total;
      lines_per.(i) <- lines;
      num_sets.(i) <- lines / c.assoc;
      assocs.(i) <- c.assoc;
      line_bytes.(i) <- c.line_bytes;
      line_shift.(i) <- log2_exact c.line_bytes;
      set_mask.(i) <-
        (if log2_exact num_sets.(i) >= 0 then num_sets.(i) - 1 else -1);
      ctx.(i) <- c.context_switches;
      total := !total + lines
    done;
    let uniform_shift =
      if
        n > 0
        && line_shift.(0) >= 0
        && Array.for_all (fun s -> s = line_shift.(0)) line_shift
        && Array.for_all (fun a -> a = 1) assocs
        && Array.for_all (fun m -> m >= 0) set_mask
      then line_shift.(0)
      else -1
    in
    {
      configs;
      offsets;
      lines_per;
      num_sets;
      assocs;
      line_bytes;
      line_shift;
      set_mask;
      ctx;
      uniform_shift;
      tags = Array.make !total (-1);
      stamps = Array.make !total 0;
      ticks = Array.make n 0;
      bhits = Array.make n 0;
      bmisses = Array.make n 0;
      times = Array.make n 0;
      next_flush = Array.make n flush_interval;
      last_line = -1;
      pending = 0;
      headroom = 0;
      epoch = fresh_epoch ();
    }

  let reset t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.stamps 0 (Array.length t.stamps) 0;
    let n = Array.length t.configs in
    Array.fill t.ticks 0 n 0;
    Array.fill t.bhits 0 n 0;
    Array.fill t.bmisses 0 n 0;
    Array.fill t.times 0 n 0;
    Array.fill t.next_flush 0 n flush_interval;
    t.last_line <- -1;
    t.pending <- 0;
    t.headroom <- 0;
    t.epoch <- fresh_epoch ()

  (* Materialize the pending hits (fetches deferred because their line
     hit in every config) into the per-config statistics.  Every statistics reader and every slow-path access
     goes through here first, so the counters observable from outside
     are always exact. *)
  let settle t =
    let p = t.pending in
    if p > 0 then begin
      t.pending <- 0;
      for i = 0 to Array.length t.configs - 1 do
        t.bhits.(i) <- t.bhits.(i) + p;
        t.times.(i) <- t.times.(i) + (p * hit_cost)
      done
    end

  (* How many consecutive guaranteed hits are safe before some
     context-switching config's flush comes due.  Conservative (integer
     division rounds down), which only sends us to the slow path a hair
     early. *)
  let compute_headroom t =
    let n = Array.length t.configs in
    let h = ref max_int in
    for i = 0 to n - 1 do
      if t.ctx.(i) then begin
        let room = (t.next_flush.(i) - t.times.(i)) / hit_cost in
        if room < !h then h := room
      end
    done;
    if !h = max_int then max_int else Int.max 0 !h

  (* Whether [line] hits in every config of a uniform bank: one tag
     compare each, no writes.  Indices as in [access_uniform]. *)
  let resident_everywhere t line =
    let tags = t.tags and offsets = t.offsets and set_mask = t.set_mask in
    let n = Array.length offsets in
    let i = ref 0 in
    while
      !i < n
      && Array.unsafe_get tags
           (Array.unsafe_get offsets !i + (line land Array.unsafe_get set_mask !i))
         = line
    do
      incr i
    done;
    !i = n

  (* All-direct-mapped banks (every paper sweep) take this path: the
     line range is computed once instead of per config, the tags index
     is one add, and the LRU timestamps are not maintained — a
     direct-mapped set never consults them, so hits/misses/times are
     unchanged (the Bank-vs-oracle equivalence tests hold this to
     account).  Indices are in range by construction: [set_mask.(i)]
     masks the line into [0, num_sets), and [offsets.(i) + set] stays
     inside config [i]'s slice of [tags].

     A single-line fetch whose line is resident in every config becomes
     a pending hit, whether it stays in [last_line] or moves to another
     line.  Deferring it is exact: a direct-mapped hit writes no tag (and
     the stamps are not kept), a hit adds only [hit_cost] to each
     config's time, and while [headroom > 0] no context-switch flush
     comes due, so the per-line flush check would not have fired.  Only a
     miss in some config, a line-straddling fetch or exhausted headroom
     takes the full per-config loop, which draws a new epoch if it
     writes a tag or flushes a config. *)
  let access_uniform t ~first ~last =
    let tags = t.tags in
    if
      first = last
      && t.headroom > 0
      && (first = t.last_line || resident_everywhere t first)
    then begin
      t.pending <- t.pending + 1;
      t.headroom <- t.headroom - 1;
      t.last_line <- first
    end
    else begin
    settle t;
    let offsets = t.offsets and set_mask = t.set_mask in
    let bhits = t.bhits and bmisses = t.bmisses and times = t.times in
    let ctx = t.ctx and next_flush = t.next_flush in
    let n = Array.length t.configs in
    let evicted = ref false in
    for line = first to last do
      for i = 0 to n - 1 do
        if Array.unsafe_get ctx i
           && Array.unsafe_get times i >= Array.unsafe_get next_flush i
        then begin
          Array.fill tags t.offsets.(i) t.lines_per.(i) (-1);
          evicted := true;
          while next_flush.(i) <= times.(i) do
            next_flush.(i) <- next_flush.(i) + flush_interval
          done
        end;
        let base =
          Array.unsafe_get offsets i + (line land Array.unsafe_get set_mask i)
        in
        if Array.unsafe_get tags base = line then begin
          Array.unsafe_set bhits i (Array.unsafe_get bhits i + 1);
          Array.unsafe_set times i (Array.unsafe_get times i + hit_cost)
        end
        else begin
          Array.unsafe_set tags base line;
          evicted := true;
          Array.unsafe_set bmisses i (Array.unsafe_get bmisses i + 1);
          Array.unsafe_set times i (Array.unsafe_get times i + miss_cost)
        end
      done
    done;
    if !evicted then t.epoch <- fresh_epoch ();
    t.last_line <- last;
    t.headroom <- compute_headroom t
    end

  let access_general t ~addr ~span =
    let tags = t.tags and stamps = t.stamps in
    for i = 0 to Array.length t.configs - 1 do
      let off = t.offsets.(i) in
      let assoc = t.assocs.(i) in
      (* Integer division dominates an otherwise branch-and-load-only
         access; the paper's geometries are all powers of two, so the
         common path is shifts and masks. *)
      let sh = t.line_shift.(i) in
      let first, last =
        if sh >= 0 then (addr asr sh, (addr + span) asr sh)
        else
          let lb = t.line_bytes.(i) in
          (addr / lb, (addr + span) / lb)
      in
      for line = first to last do
        if t.ctx.(i) && t.times.(i) >= t.next_flush.(i) then begin
          Array.fill tags off t.lines_per.(i) (-1);
          while t.next_flush.(i) <= t.times.(i) do
            t.next_flush.(i) <- t.next_flush.(i) + flush_interval
          done
        end;
        let mask = t.set_mask.(i) in
        let set = if mask >= 0 then line land mask else line mod t.num_sets.(i) in
        if assoc = 1 then begin
          (* Direct-mapped (every paper config): the scan degenerates to
             one compare, the sole way is its own LRU choice, and the
             timestamps are never read back. *)
          let base = off + set in
          if tags.(base) = line then begin
            t.bhits.(i) <- t.bhits.(i) + 1;
            t.times.(i) <- t.times.(i) + hit_cost
          end
          else begin
            tags.(base) <- line;
            t.bmisses.(i) <- t.bmisses.(i) + 1;
            t.times.(i) <- t.times.(i) + miss_cost
          end
        end
        else begin
          let tick = t.ticks.(i) + 1 in
          t.ticks.(i) <- tick;
          let base = off + (set * assoc) in
          let hit = ref (-1) in
          let lru = ref 0 in
          let way = ref 0 in
          while !hit < 0 && !way < assoc do
            if tags.(base + !way) = line then hit := !way
            else begin
              if tags.(base + !way) = -1 then lru := !way
              else if
                tags.(base + !lru) <> -1
                && stamps.(base + !way) < stamps.(base + !lru)
              then lru := !way;
              incr way
            end
          done;
          if !hit >= 0 then begin
            stamps.(base + !hit) <- tick;
            t.bhits.(i) <- t.bhits.(i) + 1;
            t.times.(i) <- t.times.(i) + hit_cost
          end
          else begin
            tags.(base + !lru) <- line;
            stamps.(base + !lru) <- tick;
            t.bmisses.(i) <- t.bmisses.(i) + 1;
            t.times.(i) <- t.times.(i) + miss_cost
          end
        end
      done
    done

  let access t ~addr ~size =
    let span = if size > 1 then size - 1 else 0 in
    let sh = t.uniform_shift in
    if sh >= 0 then
      access_uniform t ~first:(addr asr sh) ~last:((addr + span) asr sh)
    else access_general t ~addr ~span

  (* A slice whose memo holds the current epoch ran, at that epoch, with
     every line-touch a hit in every config.  Nothing has been evicted
     since, so each of its lines is still resident everywhere, and with
     [headroom >= touches] no flush comes due before its last touch: the
     whole slice is [touches] pending hits.  Otherwise the slice is
     walked fetch by fetch as [access] would, and the memo is written
     only if the walk left the epoch where it found it (no miss, no
     flush: every touch hit).  Inlining [access_uniform]'s same-line
     shortcut into the walk measured no faster. *)
  let access_block t memo addrs sizes lo hi =
    let sh = t.uniform_shift in
    if sh < 0 then
      for j = lo to hi - 1 do
        access t ~addr:addrs.(j) ~size:sizes.(j)
      done
    else begin
      let e = t.epoch in
      let k = 2 * lo in
      let memoized = lo >= 0 && k < Array.length memo in
      if
        memoized
        && Array.unsafe_get memo k = e
        && t.headroom >= Array.unsafe_get memo (k + 1)
      then begin
        let touches = Array.unsafe_get memo (k + 1) in
        t.pending <- t.pending + touches;
        t.headroom <- t.headroom - touches;
        (* Every line of the slice is resident everywhere; the last one
           becomes [last_line]. *)
        if hi > lo then begin
          let size = sizes.(hi - 1) in
          t.last_line <- (addrs.(hi - 1) + if size > 1 then size - 1 else 0) asr sh
        end
      end
      else begin
        let touches = ref 0 in
        for j = lo to hi - 1 do
          let addr = addrs.(j) and size = sizes.(j) in
          let first = addr asr sh
          and last = (addr + if size > 1 then size - 1 else 0) asr sh in
          touches := !touches + (last - first + 1);
          access_uniform t ~first ~last
        done;
        if memoized && t.epoch = e then begin
          Array.unsafe_set memo k e;
          Array.unsafe_set memo (k + 1) !touches
        end
      end
    end

  let configs t = t.configs

  let hits t i =
    settle t;
    t.bhits.(i)

  let misses t i =
    settle t;
    t.bmisses.(i)

  let accesses t i =
    settle t;
    t.bhits.(i) + t.bmisses.(i)

  let miss_ratio t i =
    let n = accesses t i in
    if n = 0 then 0.0 else float_of_int t.bmisses.(i) /. float_of_int n

  let fetch_cost t i =
    settle t;
    (t.bhits.(i) * hit_cost) + (t.bmisses.(i) * miss_cost)
end
