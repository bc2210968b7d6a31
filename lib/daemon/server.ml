(* jumprepd: the compilation-as-a-service front door.

   One select loop owns the Unix-domain listening socket and every
   client connection; compute runs on the resident worker processes of a
   [Harness.Pool], whose supervisor pass ([Pool.tick]) the loop drives.
   The loop itself never blocks on a peer: reads and writes fire only
   when select says so, responses queue in per-connection outboxes, and
   a wedged client costs its connection (idle timeout), never the
   server.

   Robustness discipline, in order of the request's life:
   - admission: at most [queue_cap] requests in flight; beyond that the
     request is rejected with an explicit [overloaded] error the client
     can retry on — backpressure, not unbounded buffering;
   - execution: crash isolation, deadlines (the worker is killed past
     one), retries and worker chaos are the pool supervisor's, per
     request instead of per batch;
   - drain: SIGTERM (or a [drain] request) stops accepting, answers new
     work with [draining], finishes what is in flight, flushes
     telemetry, and force-stops at the drain deadline. *)

module Json = Telemetry.Json
module Metrics = Telemetry.Metrics
module Pool = Harness.Pool

type config = {
  socket_path : string;
  jobs : int;
  worker_argv : string array;
  queue_cap : int;
  drain_deadline : float;
  idle_timeout : float;
  default_deadline : float option;
  fuzz_out : string;
  trace : Telemetry.Trace.t option;
  quiet : bool;
  store : Campaign.Store.t option;
}

let default_config socket_path =
  {
    socket_path;
    jobs = 1;
    worker_argv = [| Sys.executable_name; "worker" |];
    queue_cap = 64;
    drain_deadline = 10.0;
    idle_timeout = 30.0;
    default_deadline = None;
    fuzz_out = "fuzz-failures";
    trace = None;
    quiet = false;
    store = None;
  }

type pending = {
  p_id : int;
  p_telemetry : bool;
  p_t0 : float;
  p_ticket : Pool.ticket;
  p_commit : (string -> unit) option;  (* store a measure payload *)
}

type conn = {
  c_fd : Unix.file_descr;
  c_num : int;
  c_dec : Harness.Frame.decoder;
  c_out : Buffer.t;
  mutable c_sent : int;  (* bytes of [c_out] already written *)
  mutable c_pending : pending list;
  mutable c_last : float;  (* last byte in or out *)
  mutable c_eof : bool;  (* peer closed its write side *)
  mutable c_poisoned : bool;  (* protocol error: close once flushed *)
  mutable c_dead : bool;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  pool : Pool.t;
  metrics : Metrics.t;
  mutable conns : conn list;
  mutable draining : bool;
  mutable drain_t0 : float;
  mutable conn_seq : int;
}

(* Signal handlers may only flip a flag; the loop notices on its next
   iteration. *)
let sig_drain = Atomic.make false

let say t fmt =
  Printf.ksprintf
    (fun s -> if not t.cfg.quiet then Printf.eprintf "jumprepd: %s\n%!" s)
    fmt

(* --- request execution (worker process) --- *)

let fuzz_json (r : Campaign.Runner.fuzz_report) =
  Json.Obj
    [
      ("seeds_run", Json.Int r.fz_seeds);
      ( "failures",
        Json.Arr
          (List.map
             (fun (seed, (f : Harness.Fuzz.failure), path) ->
               Json.Obj
                 [
                   ("seed", Json.Int seed);
                   ("kind", Json.Str (Harness.Fuzz.kind_name f.kind));
                   ("config", Json.Str f.config);
                   ("detail", Json.Str f.detail);
                   ("reproducer", Json.Str path);
                 ])
             r.fz_failures) );
      ("aborted", Json.Int (List.length r.fz_aborted));
    ]

(* The [request] op: one daemon envelope, run where the one-shot CLI
   would run it.  The reply is one JSON line with the request's
   telemetry lines, rendered here so the supervisor loop only ships
   bytes, and the wire error (code, message) if it failed; on success a
   newline and the rendered payload follow, verbatim. *)
let handle payload =
  let j, env =
    match Json.parse payload with
    | Ok j -> (
      match Option.map Protocol.envelope_of_json (Json.member "envelope" j) with
      | Some (Ok env) -> (j, env)
      | Some (Error e) -> failwith e
      | None -> failwith "request has no envelope")
    | Error e -> failwith ("unparsable request: " ^ e)
  in
  let fuzz_out = Option.bind (Json.member "fuzz_out" j) Json.get_string in
  let qos = env.qos in
  let log =
    if qos.telemetry then Telemetry.Log.make Telemetry.Log.Memory
    else Telemetry.Log.null
  in
  (* The wall/growth budget is the CLI's degrade budget: replication
     backs off JUMPS -> LOOPS -> SIMPLE when it trips.  The qos deadline
     is the supervisor's, which kills the worker past it. *)
  let degrade =
    match (qos.wall_budget, qos.growth_budget) with
    | None, None -> None
    | deadline, growth -> Some (Telemetry.Budget.make ?deadline ?growth ())
  in
  let payload =
    match env.req with
    | Protocol.Compile { path; source; level; machine } ->
      Ops.compile_payload ~log ?budget:degrade ~level ~machine ~path source
    | Protocol.Measure { path; source; input; machine } ->
      Ops.measure_payload ~log ~path ~input machine source
    | Protocol.Lint { path; source; level; machine } ->
      Ops.lint_payload ~level ~machine ~path source
    | Protocol.Explain { path; source; level; machine } ->
      Ops.explain_payload ~level ~machine ~path source
    | Protocol.Fuzz { seeds; start; max_steps } ->
      Ok
        (fuzz_json
           (Campaign.Runner.fuzz ~max_steps ~start ?out_dir:fuzz_out ~seeds ()))
    | Protocol.Status | Protocol.Ping | Protocol.Drain ->
      failwith "status/ping/drain are answered by the server loop"
  in
  let events =
    if qos.telemetry then
      List.mapi
        (fun i ev ->
          Json.Str (Telemetry.Log.event_to_json ~seq:i ~t_ms:0.0 ev))
        (Telemetry.Log.events log)
    else []
  in
  let events = ("events", Json.Arr events) in
  match payload with
  | Ok p -> Json.to_string (Json.Obj [ events ]) ^ "\n" ^ Json.to_string p
  | Error (f : Ops.failure) ->
    let code =
      match f.exit_code with
      | 2 -> Protocol.Runtime_error
      | 124 -> Protocol.Deadline
      | _ -> Protocol.Bad_request
    in
    (* A guest-program fault (exit code 2) prints bare in the
       one-shot CLI, with no diagnostic tag; keep the wire message
       aligned with those bytes. *)
    let message =
      if f.exit_code = 2 then f.diag.Telemetry.Diag.message
      else Telemetry.Diag.to_string f.diag
    in
    Json.to_string
      (Json.Obj
         [
           ("code", Json.Str (Protocol.error_code_name code));
           ("message", Json.Str message);
           events;
         ])

(* --- responses --- *)

let send_response conn resp =
  let frame r = Harness.Frame.encode (Json.to_string (Protocol.response_to_json r)) in
  Buffer.add_string conn.c_out
    (match frame resp with
    | f -> f
    | exception Invalid_argument _ ->
      let id =
        match resp with
        | Protocol.Telemetry { id; _ } | Result { id; _ } | Error_resp { id; _ } -> id
      in
      frame
        (Protocol.Error_resp
           { id; code = Protocol.Internal; message = "response exceeds the frame cap" }))

let send_error t conn ~id code message =
  Metrics.incr t.metrics
    (Printf.sprintf "daemon.errors.%s" (Protocol.error_code_name code));
  send_response conn (Protocol.Error_resp { id; code; message })

let status_json t =
  Json.Obj
    [
      ("draining", Json.Bool t.draining);
      ("jobs", Json.Int t.cfg.jobs);
      ("queue_cap", Json.Int t.cfg.queue_cap);
      ("in_flight", Json.Int (Pool.in_flight t.pool));
      ("lease_depth", Json.Int (Pool.lease_depth t.pool));
      ("submitted", Json.Int (Pool.submitted t.pool));
      ("connections", Json.Int (List.length t.conns));
      ( "store",
        match t.cfg.store with
        | None -> Json.Null
        | Some st ->
          Json.Obj
            (List.map (fun (n, v) -> (n, Json.Int v)) (Campaign.Store.stats st))
      );
      ("metrics", Metrics.to_json t.metrics);
    ]

let start_drain t ~why =
  if not t.draining then begin
    t.draining <- true;
    t.drain_t0 <- Unix.gettimeofday ();
    Metrics.incr t.metrics "daemon.drains";
    say t "draining (%s): %d request(s) in flight, deadline %.1fs" why
      (Pool.in_flight t.pool) t.cfg.drain_deadline
  end

(* --- admission --- *)

let handle_envelope t conn (env : Protocol.envelope) =
  let immediate payload =
    send_response conn
      (Protocol.Result
         { id = env.id; payload = Json.to_string payload; elapsed_ms = 0.0 })
  in
  match env.req with
  | Protocol.Ping -> immediate (Json.Obj [ ("pong", Json.Bool true) ])
  | Protocol.Status -> immediate (status_json t)
  | Protocol.Drain ->
    immediate (Json.Obj [ ("draining", Json.Bool true) ]);
    start_drain t ~why:"drain request"
  | _ ->
    if t.draining then
      send_error t conn ~id:env.id Protocol.Draining
        "server is draining; no new work accepted"
    else if Pool.in_flight t.pool >= t.cfg.queue_cap then
      send_error t conn ~id:env.id Protocol.Overloaded
        (Printf.sprintf "admission queue full (%d in flight); retry later"
           t.cfg.queue_cap)
    else begin
      Metrics.incr t.metrics "daemon.admitted";
      (* The store memoizes whole measure payloads, keyed on source
         bytes + input + machine + compiler fingerprint.  This process
         answers such a request, so it resolves the key here (a hit is
         answered at once), leases a miss before submitting it, and
         commits the payload when the reply arrives. *)
      let hit, commit =
        match (env.req, t.cfg.store) with
        | Protocol.Measure { source; input; machine; _ }, Some store -> (
          let key =
            Campaign.Key.daemon_measure ~source ~input
              ~machine:machine.Ir.Machine.short
          in
          let payload e =
            Option.to_result ~none:"entry is missing the payload field"
              (Option.bind (Json.member "payload" e) Json.get_string)
          in
          match Campaign.Runner.resolve store ~key payload with
          | Ok payload -> (Some payload, None)
          | Error _ ->
            let commit = Campaign.Runner.lease ~store ~key in
            ( None,
              Some
                (fun payload ->
                  commit
                    [
                      ("kind", Json.Str "daemon-measure/1");
                      ("payload", Json.Str payload);
                    ]) ))
        | _ -> (None, None)
      in
      match hit with
      | Some payload ->
        Metrics.incr t.metrics "daemon.completed";
        send_response conn
          (Protocol.Result { id = env.id; payload; elapsed_ms = 0.0 })
      | None ->
        let deadline =
          match env.qos.deadline with
          | Some _ as d -> d
          | None -> t.cfg.default_deadline
        in
        let req =
          Json.to_string
            (Json.Obj
               [
                 ("op", Json.Str "request");
                 ("fuzz_out", Json.Str t.cfg.fuzz_out);
                 ("envelope", Protocol.envelope_to_json env);
               ])
        in
        if String.length req > Pool.max_request then
          send_error t conn ~id:env.id Protocol.Bad_request
            (Printf.sprintf "request of %d bytes exceeds the worker frame cap"
               (String.length req))
        else begin
          let ticket =
            Pool.submit t.pool ?deadline ~retries:env.qos.retries
              ?chaos:env.qos.chaos
              ~label:
                (Printf.sprintf "%s-c%d-r%d"
                   (Protocol.kind_name env.req)
                   conn.c_num env.id)
              req
          in
          conn.c_pending <-
            conn.c_pending
            @ [
                {
                  p_id = env.id;
                  p_telemetry = env.qos.telemetry;
                  p_t0 = Unix.gettimeofday ();
                  p_ticket = ticket;
                  p_commit = commit;
                };
              ]
        end
    end

let finish t conn p outcome =
  let elapsed_ms = (Unix.gettimeofday () -. p.p_t0) *. 1e3 in
  Metrics.observe t.metrics "daemon.request_ms"
    ~buckets:Metrics.Buckets.time_ms elapsed_ms;
  let plural n = if n = 1 then "" else "s" in
  match (outcome : string Pool.outcome) with
  | Pool.Done reply -> (
    (* One JSON line, then on success the payload bytes (see [handle]). *)
    let meta, payload =
      match String.index_opt reply '\n' with
      | Some i ->
        ( String.sub reply 0 i,
          Some (String.sub reply (i + 1) (String.length reply - i - 1)) )
      | None -> (reply, None)
    in
    let j = match Json.parse meta with Ok j -> j | Error _ -> Json.Null in
    let str name = Option.bind (Json.member name j) Json.get_string in
    let events = Option.bind (Json.member "events" j) Json.to_list in
    if p.p_telemetry then
      List.iter
        (fun l ->
          Option.iter
            (fun line ->
              send_response conn (Protocol.Telemetry { id = p.p_id; line }))
            (Json.get_string l))
        (Option.value ~default:[] events);
    match (payload, Option.bind (str "code") Protocol.error_code_of_name) with
    | Some payload, _ ->
      Option.iter (fun commit -> commit payload) p.p_commit;
      Metrics.incr t.metrics "daemon.completed";
      send_response conn (Protocol.Result { id = p.p_id; payload; elapsed_ms })
    | None, Some code ->
      send_error t conn ~id:p.p_id code
        (Option.value ~default:"" (str "message"))
    | None, None ->
      send_error t conn ~id:p.p_id Protocol.Internal "malformed worker reply")
  | Pool.Crashed { exn; attempts; _ } ->
    send_error t conn ~id:p.p_id Protocol.Crashed
      (Printf.sprintf "request crashed after %d attempt%s: %s" attempts
         (plural attempts) (Printexc.to_string exn))
  | Pool.Timed_out { elapsed; attempts } ->
    send_error t conn ~id:p.p_id Protocol.Deadline
      (Printf.sprintf "deadline expired after %.2fs (%d attempt%s)" elapsed
         attempts (plural attempts))

(* --- the loop --- *)

let close_conn t conn ~why =
  if not conn.c_dead then begin
    conn.c_dead <- true;
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    (* Requests already on the pool keep running (their results are
       dropped at poll time); the supervisor's accounting is untouched. *)
    say t "connection %d closed (%s)%s" conn.c_num why
      (if conn.c_pending = [] then ""
       else
         Printf.sprintf ", %d response(s) dropped" (List.length conn.c_pending))
  end

let accept_loop t =
  let rec go () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      t.conn_seq <- t.conn_seq + 1;
      Metrics.incr t.metrics "daemon.connections";
      t.conns <-
        t.conns
        @ [
            {
              c_fd = fd;
              c_num = t.conn_seq;
              c_dec = Harness.Frame.decoder ();
              c_out = Buffer.create 256;
              c_sent = 0;
              c_pending = [];
              c_last = Unix.gettimeofday ();
              c_eof = false;
              c_poisoned = false;
              c_dead = false;
            };
          ];
      go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error (ECONNABORTED, _, _) ->
      (* The peer gave up between connect and accept; nothing lost. *)
      go ()
    | exception Unix.Unix_error ((EMFILE | ENFILE as e), _, _) ->
      (* Fd exhaustion: the pending connection stays queued; stop
         accepting this tick and let reaping/drains free descriptors.
         Crashing here would take every connected client down with us. *)
      Metrics.incr t.metrics "daemon.accept_errors";
      say t "accept: %s; backing off until descriptors free up"
        (Unix.error_message e)
    | exception Unix.Unix_error (e, _, _) ->
      Metrics.incr t.metrics "daemon.accept_errors";
      say t "accept failed: %s" (Unix.error_message e)
  in
  go ()

let read_conn t conn =
  let buf = Bytes.create 65536 in
  match Unix.read conn.c_fd buf 0 (Bytes.length buf) with
  | 0 -> conn.c_eof <- true
  | n ->
    conn.c_last <- Unix.gettimeofday ();
    Harness.Frame.feed conn.c_dec (Bytes.sub_string buf 0 n)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t conn ~why:"read error"

(* Decode every complete frame the connection has buffered. *)
let drain_decoder t conn =
  let rec go () =
    if not (conn.c_dead || conn.c_poisoned) then
      match Harness.Frame.next conn.c_dec with
      | Ok None -> ()
      | Ok (Some payload) ->
        (match Protocol.parse_envelope payload with
        | Ok env -> handle_envelope t conn env
        | Error msg ->
          (* The frame boundary survived, so the connection is still in
             sync: reject the request, keep the connection. *)
          send_error t conn ~id:0 Protocol.Bad_request msg);
        go ()
      | Error msg ->
        (* Framing is gone (oversized length): answer once and hang up
           after the flush. *)
        send_error t conn ~id:0 Protocol.Bad_request msg;
        conn.c_poisoned <- true
  in
  go ()

let write_conn t conn =
  let len = Buffer.length conn.c_out in
  if len > conn.c_sent then begin
    (* Copy out a bounded window, never the whole outbox: re-snapshotting
       a multi-MB buffer on every partial write is the same quadratic
       trap as the string-concat decoder was. *)
    let chunk_len = min (len - conn.c_sent) 65536 in
    let chunk = Bytes.unsafe_of_string (Buffer.sub conn.c_out conn.c_sent chunk_len) in
    match Unix.write conn.c_fd chunk 0 chunk_len with
    | n ->
      conn.c_sent <- conn.c_sent + n;
      conn.c_last <- Unix.gettimeofday ();
      if conn.c_sent = Buffer.length conn.c_out then begin
        Buffer.clear conn.c_out;
        conn.c_sent <- 0
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t conn ~why:"write error"
  end

let poll_pending t conn =
  let still =
    List.filter
      (fun p ->
        match Pool.poll t.pool p.p_ticket with
        | None -> true
        | Some outcome ->
          if not conn.c_dead then finish t conn p outcome;
          false)
      conn.c_pending
  in
  conn.c_pending <- still

let flushed conn = Buffer.length conn.c_out = conn.c_sent

let reap_conns t now =
  List.iter
    (fun c ->
      if not c.c_dead then
        if c.c_eof && c.c_pending = [] && flushed c then
          (* Peer finished sending and owes us nothing: a normal
             hang-up.  (EOF with responses still pending keeps the
             connection: the peer may have only closed its write side.) *)
          close_conn t c ~why:"peer closed"
        else if c.c_poisoned && flushed c then
          close_conn t c ~why:"protocol error"
        else if
          c.c_pending = []
          && now -. c.c_last > t.cfg.idle_timeout
        then
          (* Covers both idle keep-alives and half-open peers stuck
             mid-frame (a truncated frame never completes, so it never
             becomes a pending request). *)
          close_conn t c
            ~why:
              (if Harness.Frame.pending c.c_dec > 0 then
                 "half-open timeout"
               else "idle timeout"))
    t.conns;
  t.conns <- List.filter (fun c -> not c.c_dead) t.conns

type drain_result = { clean : bool; force_stopped : int }

let serve cfg =
  (* A leftover socket file is only ours to replace if no daemon answers
     on it: unlinking a live endpoint would silently steal the address
     and orphan the running server.  A connection refused means the
     previous owner is gone (a stale file); anything else refuses. *)
  if Sys.file_exists cfg.socket_path then begin
    let probe = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
    let verdict =
      match Unix.connect probe (ADDR_UNIX cfg.socket_path) with
      | () -> `Live
      | exception Unix.Unix_error (ECONNREFUSED, _, _) -> `Stale
      | exception Unix.Unix_error (ENOENT, _, _) -> `Gone
      | exception Unix.Unix_error (e, _, _) -> `Other (Unix.error_message e)
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    let refuse detail =
      raise
        (Telemetry.Diag.Error
           (Telemetry.Diag.make Telemetry.Diag.Io_error ~func:"" ~pass:""
              (Printf.sprintf "%s: %s" cfg.socket_path detail)))
    in
    match verdict with
    | `Live -> refuse "a daemon is already serving on this socket"
    | `Stale -> Unix.unlink cfg.socket_path
    | `Gone -> ()
    | `Other e -> refuse (Printf.sprintf "refusing to replace this path (%s)" e)
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Atomic.set sig_drain false;
  let on_signal _ = Atomic.set sig_drain true in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let listen_fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind listen_fd (ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let t =
    {
      cfg;
      listen_fd;
      pool =
        Pool.create ?trace:cfg.trace ~workers:(max 1 cfg.jobs)
          ~argv:cfg.worker_argv ();
      metrics = Metrics.create ();
      conns = [];
      draining = false;
      drain_t0 = 0.0;
      conn_seq = 0;
    }
  in
  (* The readiness line the CI leg (and any supervisor) waits for. *)
  Printf.printf "jumprepd: listening on %s (jobs=%d, queue-cap=%d)\n%!"
    cfg.socket_path cfg.jobs cfg.queue_cap;
  let force_stop = ref false in
  let finished () =
    t.draining
    && (Pool.in_flight t.pool = 0 || !force_stop)
    && List.for_all (fun c -> flushed c) t.conns
  in
  let rec loop () =
    if Atomic.exchange sig_drain false then start_drain t ~why:"signal";
    if t.draining && not !force_stop
       && Unix.gettimeofday () -. t.drain_t0 > t.cfg.drain_deadline
    then begin
      force_stop := true;
      say t "drain deadline expired with %d request(s) in flight"
        (Pool.in_flight t.pool)
    end;
    if not (finished ()) then begin
      let live = List.filter (fun c -> not c.c_dead) t.conns in
      let rfds =
        (if t.draining then [] else [ t.listen_fd ])
        @ List.filter_map
            (fun c -> if c.c_eof then None else Some c.c_fd)
            live
      in
      let wfds =
        List.filter_map (fun c -> if flushed c then None else Some c.c_fd) live
      in
      (* One of the two selects waits (10ms at most): the pool's while
         it has work in flight, the sockets' otherwise. *)
      let busy = Pool.in_flight t.pool > 0 in
      let readable, writable, _ =
        try Unix.select rfds wfds [] (if busy then 0. else 0.01)
        with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
      in
      if List.mem t.listen_fd readable then accept_loop t;
      List.iter
        (fun c -> if List.mem c.c_fd readable then read_conn t c)
        live;
      List.iter (fun c -> drain_decoder t c) live;
      Pool.tick t.pool ~timeout:(if busy then 0.01 else 0.);
      List.iter (fun c -> poll_pending t c) t.conns;
      Metrics.set t.metrics "daemon.queue_depth"
        (float_of_int (Pool.in_flight t.pool));
      List.iter
        (fun c ->
          if (not c.c_dead) && (List.mem c.c_fd writable || not (flushed c))
          then write_conn t c)
        t.conns;
      reap_conns t (Unix.gettimeofday ());
      loop ()
    end
  in
  loop ();
  (* Shutdown: the loop only exits draining, with in-flight work done
     (or force-stopped past the deadline) and every outbox flushed. *)
  let stragglers = if !force_stop then Pool.in_flight t.pool else 0 in
  let joined = Pool.shutdown t.pool in
  List.iter (fun c -> close_conn t c ~why:"server stopped") t.conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  Sys.set_signal Sys.sigterm old_term;
  Sys.set_signal Sys.sigint old_int;
  Printf.printf
    "jumprepd: drained: %d request(s) served, %d abandoned, workers %s\n%!"
    (Metrics.counter_value t.metrics "daemon.completed")
    stragglers
    (if joined then "joined" else "killed");
  { clean = (not !force_stop) && joined; force_stopped = stragglers }
