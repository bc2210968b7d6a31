(* One executor: a supervisor over resident worker processes, or over
   the calling process when a batch has one worker (see pool.mli).  Only a
   process boundary isolates a SIGKILL or a runaway allocation, which is
   why there is no domain pool. *)

module Budget = Telemetry.Budget

let warn fmt =
  Printf.ksprintf (fun s -> Printf.eprintf "jumprepc: warning: %s\n%!" s) fmt

let clamp_jobs ?(what = "JUMPREP_JOBS") n =
  let cap = Domain.recommended_domain_count () in
  if n < 1 then begin
    warn "%s=%d is not a positive integer; using 1" what n;
    1
  end
  else if n > 4 * cap then begin
    warn "%s=%d exceeds 4x the %d available core%s; using %d" what n cap
      (if cap = 1 then "" else "s")
      cap;
    cap
  end
  else n

let parse_jobs ?(what = "JUMPREP_JOBS") s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> clamp_jobs ~what n
  | Some _ | None ->
    warn "%s=%S is not a positive integer; using 1" what s;
    1

let default_jobs () =
  match Sys.getenv_opt "JUMPREP_JOBS" with
  | None -> 1
  | Some s -> parse_jobs s

(* --- task outcomes and supervisor statistics --- *)

type 'a outcome =
  | Done of 'a
  | Crashed of { exn : exn; backtrace : string; attempts : int }
  | Timed_out of { elapsed : float; attempts : int }

let outcome_kind = function
  | Done _ -> "done"
  | Crashed _ -> "crashed"
  | Timed_out _ -> "timed-out"

type stats = {
  injected_crashes : int;
  injected_hangs : int;
  injected_allocs : int;
  retried : int;
  respawned : int;
  abandoned : int;
}

let no_stats =
  {
    injected_crashes = 0;
    injected_hangs = 0;
    injected_allocs = 0;
    retried = 0;
    respawned = 0;
    abandoned = 0;
  }

let injected s = s.injected_crashes + s.injected_hangs + s.injected_allocs

(* --- deterministic backoff --- *)

let backoff ?(base = 0.05) ?(cap = 0.8) attempt =
  min cap (base *. (2. ** float_of_int (max 0 (attempt - 1))))

(* --- deterministic chaos injection --- *)

type chaos = { crash : float; hang : float; alloc : float; chaos_seed : int }

exception Chaos_crash

(* splitmix-flavored integer scramble.  32-bit multiplier constants on a
   30-bit state: the usual 64-bit constants overflow OCaml's 63-bit
   native ints.  Pure in (seed, task, attempt), so sequential and
   parallel runs inject the identical fault schedule. *)
let mix seed task attempt =
  let mask = (1 lsl 30) - 1 in
  let golden = 0x9E3779B1 in
  let scramble h =
    let h = (h lxor (h lsr 15)) * 0x85EBCA6B land mask in
    let h = (h lxor (h lsr 13)) * 0xC2B2AE35 land mask in
    h lxor (h lsr 16)
  in
  let h = scramble ((seed land mask) + golden) in
  let h = scramble (h lxor ((task + 1) * golden land mask)) in
  scramble (h lxor ((attempt + 1) * golden land mask))

let chaos_fault c ~task ~attempt =
  let u = float_of_int (mix c.chaos_seed task attempt land 0xFFFFFF) /. 16777216. in
  if u < c.crash then Some `Crash
  else if u < c.crash +. c.hang then Some `Hang
  else if u < c.crash +. c.hang +. c.alloc then Some `Alloc
  else None

let chaos_of_string s =
  let parts =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rate kind v =
    match float_of_string_opt v with
    | Some r when r >= 0. && r <= 1. -> Ok r
    | Some _ | None ->
      Error (Printf.sprintf "bad %s rate %S (want a probability in 0..1)" kind v)
  in
  let rec go c = function
    | [] ->
      if c.crash +. c.hang +. c.alloc > 0. then Ok c
      else Error "chaos spec enables no fault kind"
    | p :: rest -> (
      let kind, value =
        match String.index_opt p ':' with
        | None -> (p, None)
        | Some i ->
          ( String.sub p 0 i,
            Some (String.sub p (i + 1) (String.length p - i - 1)) )
      in
      let with_rate set = function
        | None -> go (set 0.1) rest
        | Some v -> (
          match rate kind v with Ok r -> go (set r) rest | Error e -> Error e)
      in
      match kind with
      | "crash" -> with_rate (fun r -> { c with crash = r }) value
      | "hang" -> with_rate (fun r -> { c with hang = r }) value
      | "alloc" -> with_rate (fun r -> { c with alloc = r }) value
      | "seed" -> (
        match Option.bind value int_of_string_opt with
        | Some n -> go { c with chaos_seed = n } rest
        | None -> Error (Printf.sprintf "bad chaos seed in %S (want seed:N)" p))
      | _ ->
        Error
          (Printf.sprintf
             "unknown chaos component %S (want crash|hang|alloc[:RATE] or \
              seed:N)"
             p))
  in
  go { crash = 0.; hang = 0.; alloc = 0.; chaos_seed = 1 } parts

(* --- the worker side --- *)

exception Worker_failed of string

(* ~64MB of short-lived garbage: memory pressure that must not change
   the request's reply. *)
let alloc_storm () =
  for _ = 1 to 64 do
    ignore (Sys.opaque_identity (Bytes.create (1 lsl 20)))
  done

(* The envelope (DESIGN.md §7).  Request frame: a fault tag ("-",
   "hang" or "alloc"), a newline, the request.  Reply frame: "ok" or
   "crash", a newline, then the handler's reply or the text of the
   exception it raised. *)
let split_tag frame =
  match String.index_opt frame '\n' with
  | Some i ->
    (String.sub frame 0 i, String.sub frame (i + 1) (String.length frame - i - 1))
  | None -> (frame, "")

(* The longest request a frame can carry behind its fault tag. *)
let max_request = Frame.max_frame - String.length "alloc\n"

let serve ~handler () =
  (* Frames go to a private copy of stdout; fd 1 becomes stderr, so a
     stray print in handler code cannot corrupt the reply stream. *)
  let out = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  let reply tag body =
    let frame =
      match Frame.encode (tag ^ "\n" ^ body) with
      | f -> f
      | exception Invalid_argument _ ->
        Frame.encode
          (Printf.sprintf "crash\nreply of %d bytes exceeds the frame cap"
             (String.length body))
    in
    Frame.write_all out frame
  in
  let dec = Frame.decoder () in
  let buf = Bytes.create 65536 in
  let rec loop () =
    match Frame.next dec with
    | Error e ->
      Printf.eprintf "jumprepc: worker: bad frame: %s\n%!" e;
      exit 1
    | Ok (Some frame) -> (
      let fault, req = split_tag frame in
      (* An injected hang waits for the supervisor's deadline kill. *)
      if fault = "hang" then
        while true do
          Unix.sleepf 1.0
        done;
      if fault = "alloc" then alloc_storm ();
      match handler req with
      | None -> ()
      | Some r ->
        reply "ok" r;
        loop ()
      | exception e ->
        reply "crash" (Printexc.to_string e);
        loop ())
    | Ok None ->
      let n = Unix.read Unix.stdin buf 0 (Bytes.length buf) in
      (* EOF: the supervisor closed the pipe (or died) — a clean exit. *)
      if n > 0 then begin
        Frame.feed dec (Bytes.sub_string buf 0 n);
        loop ()
      end
  in
  loop ()

(* --- the supervisor --- *)

(* How one attempt failed: a raised exception or a dead worker, or a
   deadline. *)
type failure = F_crash of exn * string | F_timeout of float

type job = {
  index : int;  (* input position; the chaos task index *)
  req : string;
  label : string;
  mutable attempts : int;
  mutable out : string outcome option;
}

type lease = {
  job : job;
  attempt : int;
  started : float;
  ts_us : float;  (* span start on the trace clock *)
  killed : bool;  (* chaos crash: SIGKILLed right after the send *)
}

(* One worker process and the state of its stdout stream. *)
type proc = {
  pid : int;
  to_w : Unix.file_descr;  (* the worker's stdin *)
  from_w : Unix.file_descr;  (* the worker's stdout *)
  dec : Frame.decoder;
}

(* A worker slot.  [lane] is its trace lane (1..N) and outlives the
   process: a respawned worker inherits its predecessor's lane. *)
type worker = { lane : int; mutable proc : proc; mutable lease : lease option }

(* One batch: its settings, its workers (none in-process) and the
   attempts not yet settled. *)
type t = {
  argv : string array;
  workers : worker array;
  inline : (Budget.t -> string -> string) option;
      (* no workers: attempts run here, through this handler *)
  trace : Telemetry.Trace.t option;
  backoff_base : float;
  deadline : float option;  (* per attempt; the worker is killed past it *)
  retries : int;
  chaos : chaos option;
  queue : job Queue.t;
  mutable delayed : (float * job) list;  (* retries waiting out a backoff *)
  mutable in_flight : int;
  mutable st : stats;
  buf : Bytes.t;  (* read buffer *)
}

let tr t g = match t.trace with Some tr -> g tr | None -> ()
let trace_now t = match t.trace with Some tr -> Telemetry.Trace.now_us tr | None -> 0.

let spawn argv =
  (* to the worker: we write w1, it reads r1; from it: it writes w2, we
     read r2.  Our ends are close-on-exec so no later worker inherits
     them (a leaked stdin would never see EOF).  stderr is shared, so
     worker warnings still reach the operator. *)
  let r1, w1 = Unix.pipe ~cloexec:false () in
  let r2, w2 = Unix.pipe ~cloexec:false () in
  Unix.set_close_on_exec w1;
  Unix.set_close_on_exec r2;
  let pid = Unix.create_process argv.(0) argv r1 w2 Unix.stderr in
  Unix.close r1;
  Unix.close w2;
  { pid; to_w = w1; from_w = r2; dec = Frame.decoder () }

let finalize t job o =
  job.out <- Some o;
  t.in_flight <- t.in_flight - 1

(* A failed attempt: schedule the retry after its backoff, or settle the
   request's outcome once the retries are spent. *)
let fail t job attempt now fl =
  if attempt <= t.retries then begin
    t.st <- { t.st with retried = t.st.retried + 1 };
    tr t (fun tr ->
        Telemetry.Trace.instant tr ~tid:0
          ~args:
            [
              ("task", Telemetry.Json.Str job.label);
              ("attempt", Telemetry.Json.Int attempt);
            ]
          "task-retry");
    t.delayed <- (now +. backoff ~base:t.backoff_base attempt, job) :: t.delayed
  end
  else
    finalize t job
      (match fl with
      | F_crash (exn, backtrace) -> Crashed { exn; backtrace; attempts = attempt }
      | F_timeout elapsed -> Timed_out { elapsed; attempts = attempt })

(* Close an attempt's span on its lane. *)
let span t ~lane job attempt ts_us =
  tr t (fun tr ->
      Telemetry.Trace.complete tr ~tid:lane
        ~args:[ ("attempt", Telemetry.Json.Int attempt) ]
        ~name:job.label ~ts_us
        ~dur_us:(Telemetry.Trace.now_us tr -. ts_us)
        ())

(* Number the job's next attempt and draw its chaos fault, counting the
   fault and marking it on the lane. *)
let start_attempt t ~lane job =
  let attempt = job.attempts + 1 in
  job.attempts <- attempt;
  let fault =
    match t.chaos with
    | None -> None
    | Some c -> chaos_fault c ~task:job.index ~attempt
  in
  let count kind st =
    t.st <- st;
    tr t (fun tr ->
        Telemetry.Trace.instant tr ~tid:lane ~cat:"chaos" ("chaos-" ^ kind))
  in
  let s = t.st in
  (match fault with
  | Some `Crash -> count "crash" { s with injected_crashes = s.injected_crashes + 1 }
  | Some `Hang -> count "hang" { s with injected_hangs = s.injected_hangs + 1 }
  | Some `Alloc -> count "alloc" { s with injected_allocs = s.injected_allocs + 1 }
  | None -> ());
  (attempt, fault)

(* In-process: the same schedule under a cooperative deadline.  An
   injected hang is charged as a timed-out attempt without spinning —
   nothing else could make progress meanwhile. *)
let run_here t handler job =
  let attempt, fault = start_attempt t ~lane:1 job in
  let started = Unix.gettimeofday () and ts_us = trace_now t in
  let res =
    match fault with
    | Some `Crash -> Error (F_crash (Chaos_crash, ""))
    | Some `Hang -> Error (F_timeout (Option.value t.deadline ~default:0.))
    | (Some `Alloc | None) as fl -> (
      if fl <> None then alloc_storm ();
      match handler (Budget.make ?deadline:t.deadline ()) job.req with
      | v -> Ok v
      | exception Budget.Exhausted _ ->
        Error (F_timeout (Unix.gettimeofday () -. started))
      | exception e -> Error (F_crash (e, Printexc.get_backtrace ())))
  in
  span t ~lane:1 job attempt ts_us;
  match res with
  | Ok v -> finalize t job (Done v)
  | Error fl -> fail t job attempt (Unix.gettimeofday ()) fl

let dispatch t w job =
  let attempt, fault = start_attempt t ~lane:w.lane job in
  let ts_us = trace_now t in
  if fault = Some `Hang && t.deadline = None then begin
    (* Nothing would ever kill the worker: charged as a timed-out
       attempt without sending, as in-process. *)
    span t ~lane:w.lane job attempt ts_us;
    fail t job attempt (Unix.gettimeofday ()) (F_timeout 0.)
  end
  else if String.length job.req > max_request then begin
    (* Too large to frame: no attempt can succeed. *)
    span t ~lane:w.lane job attempt ts_us;
    let exn = Invalid_argument "Pool: request exceeds the frame cap" in
    finalize t job (Crashed { exn; backtrace = ""; attempts = attempt })
  end
  else begin
    let tag =
      match fault with Some `Hang -> "hang" | Some `Alloc -> "alloc" | _ -> "-"
    in
    let killed = fault = Some `Crash in
    w.lease <- Some { job; attempt; started = Unix.gettimeofday (); ts_us; killed };
    (* A send that fails means the worker is already dead: the EOF on
       its stdout settles the attempt on the next tick. *)
    (try Frame.write_all w.proc.to_w (Frame.encode (tag ^ "\n" ^ job.req))
     with Unix.Unix_error _ -> ());
    if killed then try Unix.kill w.proc.pid Sys.sigkill with Unix.Unix_error _ -> ()
  end

(* Move retries whose backoff is over back onto the queue. *)
let release t now =
  let due, later = List.partition (fun (at, _) -> at <= now) t.delayed in
  t.delayed <- later;
  List.iter (fun (_, job) -> Queue.push job t.queue) (List.rev due)

(* Hand queued requests to idle workers.  A dispatch that settles its
   attempt without sending leaves the worker idle for the next one. *)
let dispatch_queued t =
  Array.iter
    (fun w ->
      while w.lease = None && not (Queue.is_empty t.queue) do
        dispatch t w (Queue.pop t.queue)
      done)
    t.workers

(* Close the worker's stdin (its exit signal), SIGKILL it when it may not
   exit by itself, and collect it. *)
let reap ~kill p =
  (try Unix.close p.to_w with Unix.Unix_error _ -> ());
  if kill then (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
  try Unix.close p.from_w with Unix.Unix_error _ -> ()

(* Settle the worker's leased attempt (if any) as [fl], then replace its
   process. *)
let replace t w ~why now fl =
  Option.iter
    (fun l ->
      span t ~lane:w.lane l.job l.attempt l.ts_us;
      fail t l.job l.attempt now (fl l))
    w.lease;
  tr t (fun tr ->
      Telemetry.Trace.instant tr ~tid:0
        ~args:[ ("worker", Telemetry.Json.Int w.lane) ]
        why);
  reap ~kill:true w.proc;
  w.lease <- None;
  w.proc <- spawn t.argv;
  t.st <- { t.st with respawned = t.st.respawned + 1 };
  tr t (fun tr ->
      Telemetry.Trace.instant tr ~tid:0
        ~args:[ ("worker", Telemetry.Json.Int w.lane) ]
        "worker-respawn")

(* The worker's process is gone (EOF, garbage, or a kill): its attempt
   crashed. *)
let worker_lost t w now why =
  replace t w ~why:"worker-died" now (fun l ->
      F_crash ((if l.killed then Chaos_crash else Worker_failed why), ""))

let settle t w now frame =
  match w.lease with
  | None -> ()
  | Some l when l.killed -> ()  (* the kill is in flight; EOF settles it *)
  | Some l -> (
    span t ~lane:w.lane l.job l.attempt l.ts_us;
    w.lease <- None;
    match split_tag frame with
    | "ok", reply -> finalize t l.job (Done reply)
    | _, msg -> fail t l.job l.attempt now (F_crash (Worker_failed msg, "")))

let read_worker t w =
  match Unix.read w.proc.from_w t.buf 0 (Bytes.length t.buf) with
  | 0 -> worker_lost t w (Unix.gettimeofday ()) "worker process died"
  | n ->
    Frame.feed w.proc.dec (Bytes.sub_string t.buf 0 n);
    let rec drain () =
      match Frame.next w.proc.dec with
      | Ok (Some frame) ->
        settle t w (Unix.gettimeofday ()) frame;
        drain ()
      | Ok None -> ()
      | Error e -> worker_lost t w (Unix.gettimeofday ()) ("bad frame: " ^ e)
    in
    drain ()
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
    worker_lost t w (Unix.gettimeofday ()) (Unix.error_message e)

(* The nearest due retry, as a wait from [now] capped at [timeout]. *)
let until_retry t ~timeout now =
  List.fold_left (fun acc (at, _) -> Float.min acc (at -. now)) timeout t.delayed

let tick_inline t handler ~timeout now =
  (* One attempt per tick, so a batch sees each outcome as it settles. *)
  match Queue.take_opt t.queue with
  | Some job -> run_here t handler job
  | None ->
    (* Only retries waiting out a backoff are left. *)
    if t.delayed <> [] then Unix.sleepf (Float.max 0. (until_retry t ~timeout now))

let overdue t now (l : lease) =
  match t.deadline with Some d -> now -. l.started > d | None -> false

(* A single [select] over the busy workers' pipes, waiting at most
   [timeout] seconds (less when a deadline or a retry falls due sooner),
   then deliver replies, kill overdue workers, respawn lost ones and
   dispatch queued and due requests. *)
let tick_workers t ~timeout now =
  dispatch_queued t;
  let busy = List.filter (fun w -> w.lease <> None) (Array.to_list t.workers) in
  (* Wait no longer than the nearest deadline or due retry, and not at
     all when nothing is running or waiting. *)
  let wait =
    if busy = [] && t.delayed = [] then 0. else until_retry t ~timeout now
  in
  let wait =
    match t.deadline with
    | None -> wait
    | Some d ->
      List.fold_left
        (fun acc w ->
          match w.lease with
          | Some l -> Float.min acc (l.started +. d -. now)
          | None -> acc)
        wait busy
  in
  let ready, _, _ =
    try Unix.select (List.map (fun w -> w.proc.from_w) busy) [] [] (Float.max 0. wait)
    with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
  in
  List.iter (fun w -> if List.memq w.proc.from_w ready then read_worker t w) busy;
  let now = Unix.gettimeofday () in
  Array.iter
    (fun w ->
      match w.lease with
      | Some l when overdue t now l ->
        t.st <- { t.st with abandoned = t.st.abandoned + 1 };
        replace t w ~why:"deadline-kill" now (fun _ -> F_timeout (now -. l.started))
      | _ -> ())
    t.workers;
  release t now;
  dispatch_queued t

let tick t ~timeout =
  let now = Unix.gettimeofday () in
  release t now;
  match t.inline with
  | Some handler -> tick_inline t handler ~timeout now
  | None -> tick_workers t ~timeout now

(* Close every worker's stdin (their exit signal) and reap them; a worker
   still busy (the batch was cut short by an exception) is killed. *)
let shutdown t =
  Array.iter (fun w -> reap ~kill:(w.lease <> None) w.proc) t.workers

(* --- batch --- *)

let run ?(workers = 0) ?argv ?deadline ?(retries = 2) ?(backoff_base = 0.05)
    ?chaos ?trace ?(label = Printf.sprintf "task-%d") ?(on_done = fun _ _ -> ())
    ~handler reqs =
  let workers = max 0 (min workers (List.length reqs)) in
  let argv, inline =
    if workers = 0 then ([||], Some handler)
    else
      match argv with
      | Some argv -> (argv, None)
      | None -> invalid_arg "Pool.run: workers > 0 needs argv"
  in
  let lanes = max 1 workers in
  Option.iter
    (fun tr ->
      Telemetry.Trace.thread_name tr ~tid:0 "supervisor";
      for k = 1 to lanes do
        Telemetry.Trace.thread_name tr ~tid:k (Printf.sprintf "worker-%d" k)
      done)
    trace;
  (* A worker killed mid-request makes the next send EPIPE; that must be
     a failed attempt, not the death of this process. *)
  if workers > 0 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let jobs =
    List.mapi
      (fun index req -> { index; req; label = label index; attempts = 0; out = None })
      reqs
  in
  let t =
    {
      argv;
      workers =
        Array.init workers (fun k ->
            { lane = k + 1; proc = spawn argv; lease = None });
      inline;
      trace;
      backoff_base;
      deadline;
      retries;
      chaos;
      queue = Queue.of_seq (List.to_seq jobs);
      delayed = [];
      in_flight = List.length jobs;
      st = no_stats;
      buf = Bytes.create 65536;
    }
  in
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
      (* Report the settled prefix after every tick. *)
      let pending = ref jobs in
      let rec deliver () =
        match !pending with
        | { out = Some o; index; _ } :: rest ->
          pending := rest;
          on_done index o;
          deliver ()
        | _ -> ()
      in
      while t.in_flight > 0 do
        tick t ~timeout:1.0;
        deliver ()
      done;
      (List.map (fun j -> Option.get j.out) jobs, t.st))
