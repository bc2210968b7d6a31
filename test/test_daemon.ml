(* The daemon stack: wire protocol (framing, strict envelope/response
   parsing, fuzzed decoder robustness), connection-level chaos draws, the
   process pool it schedules onto (driven by ticks, as the server drives
   it), and one end-to-end server exercise — its workers are this test
   binary — asserting the byte-identity contract. *)

open Daemon
module Json = Telemetry.Json

let sample_source =
  "int main() {\n\
  \  int i, s;\n\
  \  s = 0;\n\
  \  for (i = 0; i < 6; i++) { s = s + i; }\n\
  \  putchar(48 + (s % 10));\n\
  \  putchar(10);\n\
  \  return 0;\n\
   }\n"

(* --- framing --- *)

let test_frame_roundtrip () =
  let payloads = [ "{}"; String.make 70000 'x'; ""; "{\"a\":1}" ] in
  let stream = String.concat "" (List.map Harness.Frame.encode payloads) in
  (* One byte at a time: the decoder must reassemble every frame in
     order regardless of chunking. *)
  let dec = Harness.Frame.decoder () in
  let out = ref [] in
  String.iter
    (fun c ->
      Harness.Frame.feed dec (String.make 1 c);
      let rec drain () =
        match Harness.Frame.next dec with
        | Ok (Some p) ->
          out := p :: !out;
          drain ()
        | Ok None -> ()
        | Error e -> Alcotest.failf "decoder poisoned: %s" e
      in
      drain ())
    stream;
  Alcotest.(check (list int))
    "all frames, in order, byte-exact"
    (List.map String.length payloads)
    (List.rev_map String.length !out);
  Alcotest.(check bool)
    "payloads equal" true
    (List.rev !out = payloads);
  Alcotest.(check int) "nothing buffered" 0 (Harness.Frame.pending dec);
  (match Harness.Frame.encode (String.make (Harness.Frame.max_frame + 1) 'y') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized encode_frame must raise")

let test_decoder_poisoning () =
  let dec = Harness.Frame.decoder () in
  (* A header announcing more than max_frame poisons permanently. *)
  let huge = Bytes.create 4 in
  Bytes.set_int32_be huge 0 (Int32.of_int (Harness.Frame.max_frame + 1));
  Harness.Frame.feed dec (Bytes.to_string huge);
  (match Harness.Frame.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized length must poison the decoder");
  Harness.Frame.feed dec (Harness.Frame.encode "{}");
  (match Harness.Frame.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "poisoned decoder must stay poisoned")

let test_decoder_fuzz () =
  (* Seeded byte mutations over valid streams, plus pure garbage: the
     decoder must never raise, only yield frames, wait, or poison.  The
     same Random.State discipline as Harness.Gen keeps every run
     identical. *)
  let exercised = ref 0 in
  for seed = 1 to 60 do
    let st = Random.State.make [| 0xDAE; seed |] in
    let payloads =
      List.init
        (1 + Random.State.int st 4)
        (fun _ ->
          String.init (Random.State.int st 200) (fun _ ->
              Char.chr (Random.State.int st 256)))
    in
    let stream =
      Bytes.of_string
        (String.concat "" (List.map Harness.Frame.encode payloads))
    in
    let mutations = 1 + Random.State.int st 4 in
    for _ = 1 to mutations do
      if Bytes.length stream > 0 then
        Bytes.set stream
          (Random.State.int st (Bytes.length stream))
          (Char.chr (Random.State.int st 256))
    done;
    let dec = Harness.Frame.decoder () in
    let pos = ref 0 in
    (try
       while !pos < Bytes.length stream do
         let chunk = min (1 + Random.State.int st 97) (Bytes.length stream - !pos) in
         Harness.Frame.feed dec (Bytes.sub_string stream !pos chunk);
         pos := !pos + chunk;
         let rec drain () =
           match Harness.Frame.next dec with
           | Ok (Some _) ->
             incr exercised;
             drain ()
           | Ok None | Error _ -> ()
         in
         drain ()
       done
     with e ->
       Alcotest.failf "decoder raised on mutated stream (seed %d): %s" seed
         (Printexc.to_string e))
  done;
  Alcotest.(check bool)
    "some mutated streams still yielded frames" true (!exercised > 0)

let test_decoder_deep_nesting () =
  (* A legal frame (under the 16MB cap) whose payload is millions of
     nested '[': the decoder must hand it over and [parse_envelope] must
     answer a parse [Error] — on the server this path runs on the
     supervisor loop, so a [Stack_overflow] here would kill the whole
     daemon, not one request. *)
  let payload = String.make 4_000_000 '[' in
  let dec = Harness.Frame.decoder () in
  Harness.Frame.feed dec (Harness.Frame.encode payload);
  match Harness.Frame.next dec with
  | Ok (Some p) -> (
    Alcotest.(check int) "payload intact" (String.length payload) (String.length p);
    match Protocol.parse_envelope p with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "deeply nested garbage must not parse"
    | exception e ->
      Alcotest.failf "parse_envelope raised on deep nesting: %s"
        (Printexc.to_string e))
  | Ok None -> Alcotest.fail "complete frame not yielded"
  | Error e -> Alcotest.failf "legal frame poisoned the decoder: %s" e

(* --- envelopes and responses --- *)

let qos_full =
  {
    Protocol.deadline = Some 2.5;
    wall_budget = Some 1.25;
    growth_budget = Some 64;
    retries = 3;
    chaos =
      (match Harness.Pool.chaos_of_string "crash:0.25,seed:7" with
      | Ok c -> Some c
      | Error e -> Alcotest.failf "chaos spec: %s" e);
    telemetry = true;
  }

let roundtrip env =
  match Protocol.envelope_of_json (Protocol.envelope_to_json env) with
  | Ok env' -> env'
  | Error e ->
    Alcotest.failf "envelope %s failed roundtrip: %s"
      (Protocol.kind_name env.Protocol.req)
      e

let test_envelope_roundtrip () =
  let reqs =
    [
      Protocol.Compile
        {
          path = "t.c";
          source = sample_source;
          level = Opt.Driver.Jumps;
          machine = Ir.Machine.risc;
        };
      Protocol.Measure
        {
          path = "t.c";
          source = sample_source;
          input = "abc";
          machine = Ir.Machine.cisc;
        };
      Protocol.Lint
        {
          path = "t.c";
          source = sample_source;
          level = Opt.Driver.Loops;
          machine = Ir.Machine.cisc;
        };
      Protocol.Explain
        {
          path = "t.c";
          source = sample_source;
          level = Opt.Driver.Simple;
          machine = Ir.Machine.risc;
        };
      Protocol.Fuzz { seeds = 5; start = 11; max_steps = 1000 };
      Protocol.Status;
      Protocol.Ping;
      Protocol.Drain;
    ]
  in
  List.iteri
    (fun i req ->
      let env = { Protocol.id = i + 1; qos = qos_full; req } in
      let env' = roundtrip env in
      Alcotest.(check int) "id" env.Protocol.id env'.Protocol.id;
      Alcotest.(check string)
        "kind"
        (Protocol.kind_name env.Protocol.req)
        (Protocol.kind_name env'.Protocol.req);
      Alcotest.(check (option (float 1e-9)))
        "deadline" env.Protocol.qos.deadline env'.Protocol.qos.deadline;
      Alcotest.(check int) "retries" 3 env'.Protocol.qos.retries;
      Alcotest.(check bool) "telemetry" true env'.Protocol.qos.telemetry)
    reqs

let reject name payload =
  match Protocol.parse_envelope payload with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s must be rejected" name

let test_envelope_strictness () =
  reject "not json" "pong";
  reject "trailing garbage" "{\"id\":1,\"kind\":\"ping\"} trailing";
  reject "missing id" "{\"kind\":\"ping\"}";
  reject "zero id" "{\"id\":0,\"kind\":\"ping\"}";
  reject "negative id" "{\"id\":-3,\"kind\":\"ping\"}";
  reject "unknown kind" "{\"id\":1,\"kind\":\"transmogrify\"}";
  reject "compile without source"
    "{\"id\":1,\"kind\":\"compile\",\"path\":\"t.c\"}";
  reject "bad level"
    "{\"id\":1,\"kind\":\"compile\",\"path\":\"t.c\",\"source\":\"\",\"level\":\"mega\"}";
  reject "bad machine"
    "{\"id\":1,\"kind\":\"compile\",\"path\":\"t.c\",\"source\":\"\",\"machine\":\"vax\"}";
  reject "retries out of range"
    "{\"id\":1,\"kind\":\"ping\",\"qos\":{\"retries\":11}}";
  reject "negative deadline"
    "{\"id\":1,\"kind\":\"ping\",\"qos\":{\"deadline\":-1.0}}";
  reject "bad chaos spec"
    "{\"id\":1,\"kind\":\"ping\",\"qos\":{\"chaos\":\"sparks:0.5\"}}";
  reject "oversized source"
    (Printf.sprintf "{\"id\":1,\"kind\":\"compile\",\"path\":\"t.c\",\"source\":%s}"
       (Json.to_string (Json.Str (String.make (Harness.Frame.max_frame / 2 + 1) 'x'))));
  (* Duplicate keys: strict parser keeps the document, [member] takes the
     first binding — the envelope id must be 1, not 2. *)
  match Protocol.parse_envelope "{\"id\":1,\"id\":2,\"kind\":\"ping\"}" with
  | Ok env -> Alcotest.(check int) "first id wins" 1 env.Protocol.id
  | Error e -> Alcotest.failf "duplicate-key envelope: %s" e

let test_response_roundtrip () =
  (* The Result payload is an opaque pre-rendered document: its bytes —
     including float formatting — must survive the wire untouched. *)
  let payload = "{\"miss_ratio\":0.123457,\"x\":1.000000}" in
  let rt r =
    match Protocol.parse_response (Json.to_string (Protocol.response_to_json r)) with
    | Ok r' -> r'
    | Error e -> Alcotest.failf "response roundtrip: %s" e
  in
  (match rt (Protocol.Result { id = 9; payload; elapsed_ms = 1.5 }) with
  | Protocol.Result { id = 9; payload = p; _ } ->
    Alcotest.(check string) "payload bytes survive" payload p
  | _ -> Alcotest.fail "result response shape");
  (match rt (Protocol.Telemetry { id = 4; line = "{\"ev\":\"pass_end\"}" }) with
  | Protocol.Telemetry { id = 4; line } ->
    Alcotest.(check string) "telemetry line" "{\"ev\":\"pass_end\"}" line
  | _ -> Alcotest.fail "telemetry response shape");
  List.iter
    (fun code ->
      let name = Protocol.error_code_name code in
      (match Protocol.error_code_of_name name with
      | Some c when c = code -> ()
      | _ -> Alcotest.failf "error code %s does not roundtrip" name);
      match rt (Protocol.Error_resp { id = 2; code; message = "m " ^ name }) with
      | Protocol.Error_resp { id = 2; code = c; message } when c = code ->
        Alcotest.(check string) "message" ("m " ^ name) message
      | _ -> Alcotest.failf "error response shape for %s" name)
    Protocol.
      [
        Overloaded; Draining; Bad_request; Crashed; Deadline; Runtime_error;
        Internal;
      ]

(* --- connection chaos --- *)

let test_conn_chaos () =
  (match Protocol.conn_chaos_of_string "disconnect" with
  | Ok c ->
    Alcotest.(check (float 1e-9)) "default rate" 0.1 c.Protocol.disconnect;
    Alcotest.(check int) "default seed" 1 c.Protocol.conn_seed
  | Error e -> Alcotest.failf "plain spec: %s" e);
  (match Protocol.conn_chaos_of_string "garbage:0.5,slowloris:0.2,seed:9" with
  | Ok c ->
    Alcotest.(check (float 1e-9)) "garbage rate" 0.5 c.Protocol.garbage;
    Alcotest.(check (float 1e-9)) "slowloris rate" 0.2 c.Protocol.slowloris;
    Alcotest.(check int) "seed" 9 c.Protocol.conn_seed
  | Error e -> Alcotest.failf "full spec: %s" e);
  List.iter
    (fun bad ->
      match Protocol.conn_chaos_of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S must be rejected" bad)
    [ ""; "bogus"; "disconnect:1.5"; "disconnect:-0.1"; "seed:x" ];
  (* The draw is a pure function of (seed, request index). *)
  let c =
    match Protocol.conn_chaos_of_string "disconnect:0.3,garbage:0.3,seed:5" with
    | Ok c -> c
    | Error e -> Alcotest.failf "spec: %s" e
  in
  let draws () = List.init 128 (fun i -> Protocol.conn_fault c ~req:i) in
  Alcotest.(check bool) "deterministic" true (draws () = draws ());
  let faults = List.filter Option.is_some (draws ()) in
  Alcotest.(check bool)
    "some faults at rate 0.6" true
    (List.length faults > 20 && List.length faults < 128);
  let quiet = { c with Protocol.disconnect = 0.; garbage = 0. } in
  Alcotest.(check bool)
    "zero rates draw nothing" true
    (List.for_all
       (fun i -> Protocol.conn_fault quiet ~req:i = None)
       (List.init 128 Fun.id));
  let always = { c with Protocol.disconnect = 1.0 } in
  Alcotest.(check bool)
    "rate 1.0 always fires" true
    (List.for_all
       (fun i -> Protocol.conn_fault always ~req:i = Some `Disconnect)
       (List.init 32 Fun.id))

(* --- the supervisor the server ticks --- *)

module Pool = Harness.Pool

let wait_outcome pool tk =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    Pool.tick pool ~timeout:0.05;
    match Pool.poll pool tk with
    | Some o -> o
    | None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "pool outcome not delivered within 20s";
      go ()
  in
  go ()

let test_service () =
  let pool = Pool.create ~workers:2 ~argv:Test_worker.argv () in
  (* Plain completion. *)
  (match wait_outcome pool (Pool.submit pool "sq 6") with
  | Pool.Done v -> Alcotest.(check string) "done value" "36" v
  | _ -> Alcotest.fail "plain task must complete");
  (* A crash is isolated to its request and reported with its attempts. *)
  (match wait_outcome pool (Pool.submit pool "boom") with
  | Pool.Crashed { attempts = 1; _ } -> ()
  | Pool.Crashed { attempts; _ } ->
    Alcotest.failf "crash after %d attempts (wanted 1)" attempts
  | _ -> Alcotest.fail "crashing task must report Crashed");
  (* Retries resurrect a flaky request; the pool survives the crash. *)
  (match wait_outcome pool (Pool.submit pool ~retries:2 "flaky 7") with
  | Pool.Done v -> Alcotest.(check string) "retried value" "107" v
  | _ -> Alcotest.fail "flaky task must succeed on retry");
  (* A worker still busy at the deadline is killed and reported. *)
  (match wait_outcome pool (Pool.submit pool ~deadline:0.5 "spin") with
  | Pool.Timed_out _ -> ()
  | Pool.Done _ -> Alcotest.fail "deadline task cannot finish"
  | Pool.Crashed { exn; _ } ->
    Alcotest.failf "deadline task crashed: %s" (Printexc.to_string exn));
  Alcotest.(check int) "nothing in flight" 0 (Pool.in_flight pool);
  Alcotest.(check int) "four submissions" 4 (Pool.submitted pool);
  Alcotest.(check int) "nothing leased" 0 (Pool.lease_depth pool);
  Alcotest.(check int) "overdue worker killed" 1 (Pool.stats pool).Pool.abandoned;
  Alcotest.(check bool) "workers join" true (Pool.shutdown pool)

(* --- end to end --- *)

let test_socket = Printf.sprintf "/tmp/jrd-alcotest-%d.sock" (Unix.getpid ())

let connect_retry path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    match Client.connect path with
    | Ok c -> c
    | Error _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      go ()
    | Error e -> Alcotest.failf "cannot connect to test server: %s" e
  in
  go ()

let must_result name = function
  | Ok (payload, _ms) -> payload
  | Error (code, msg) ->
    Alcotest.failf "%s failed: %s: %s" name (Protocol.error_code_name code) msg

let compile_req =
  Protocol.Compile
    {
      path = "inline.c";
      source = sample_source;
      level = Opt.Driver.Jumps;
      machine = Ir.Machine.risc;
    }

let test_server_end_to_end () =
  let cfg =
    {
      (Server.default_config test_socket) with
      Server.jobs = 2;
      worker_argv = Test_worker.argv;
      quiet = true;
      drain_deadline = 5.0;
    }
  in
  let server = Domain.spawn (fun () -> Server.serve cfg) in
  Fun.protect
    ~finally:(fun () -> try Unix.unlink test_socket with _ -> ())
    (fun () ->
      let c = connect_retry test_socket in
      (* Liveness. *)
      let pong = must_result "ping" (Client.request c Protocol.Ping) in
      Alcotest.(check string) "pong" "{\"pong\":true}" pong;
      (* Byte identity: the daemon's compile payload is exactly the
         in-process Ops rendering (the CLI's --stats-json bytes). *)
      let expected =
        match
          Ops.compile_payload ~level:Opt.Driver.Jumps
            ~machine:Ir.Machine.risc ~path:"inline.c" sample_source
        with
        | Ok j -> Json.to_string j
        | Error f -> Alcotest.failf "local compile: %s" f.Ops.diag.message
      in
      let got = must_result "compile" (Client.request c compile_req) in
      Alcotest.(check string) "compile payload byte-identical" expected got;
      (* Telemetry streaming: requesting it yields at least one JSONL
         line before the result. *)
      let lines = ref [] in
      let qos = { Protocol.default_qos with telemetry = true } in
      let got_t =
        must_result "compile+telemetry"
          (Client.request c ~qos
             ~on_telemetry:(fun l -> lines := l :: !lines)
             compile_req)
      in
      Alcotest.(check string) "telemetry does not perturb result" expected
        got_t;
      Alcotest.(check bool) "telemetry lines streamed" true (!lines <> []);
      List.iter
        (fun l ->
          match Json.parse l with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "telemetry line not JSON (%s): %s" e l)
        !lines;
      (* A runtime fault in the guest program is a typed error, not a
         server casualty. *)
      (match
         Client.request c
           (Protocol.Measure
              {
                path = "div.c";
                source = "int main() { return 1 / (1 - 1); }";
                input = "";
                machine = Ir.Machine.risc;
              })
       with
      | Error (Protocol.Runtime_error, _) -> ()
      | Error (code, m) ->
        Alcotest.failf "guest fault miscoded %s: %s"
          (Protocol.error_code_name code)
          m
      | Ok _ -> Alcotest.fail "dividing by zero cannot succeed");
      (* Worker chaos at rate 1.0 with no retries: the request crashes,
         the server survives and answers the next request. *)
      let all_crash =
        match Harness.Pool.chaos_of_string "crash:1.0,seed:3" with
        | Ok ch -> ch
        | Error e -> Alcotest.failf "chaos: %s" e
      in
      (match
         Client.request c
           ~qos:{ Protocol.default_qos with chaos = Some all_crash }
           compile_req
       with
      | Error (Protocol.Crashed, _) -> ()
      | Error (code, m) ->
        Alcotest.failf "chaos crash miscoded %s: %s"
          (Protocol.error_code_name code)
          m
      | Ok _ -> Alcotest.fail "crash:1.0 with no retries cannot succeed");
      let after =
        must_result "compile after crash" (Client.request c compile_req)
      in
      Alcotest.(check string) "server survived the crash" expected after;
      (* ... and with retries, chaos that always crashes the first
         attempt still converges to the identical payload. *)
      let flaky =
        match Harness.Pool.chaos_of_string "crash:0.4,seed:11" with
        | Ok ch -> ch
        | Error e -> Alcotest.failf "chaos: %s" e
      in
      (* Worker chaos hang with no deadline anywhere: nothing would kill
         the worker, so the attempt is charged as a timeout at once and
         the worker stays free for the next request. *)
      let all_hang =
        match Harness.Pool.chaos_of_string "hang:1.0,seed:3" with
        | Ok ch -> ch
        | Error e -> Alcotest.failf "chaos: %s" e
      in
      let t0 = Unix.gettimeofday () in
      (match
         Client.request c
           ~qos:{ Protocol.default_qos with chaos = Some all_hang; retries = 1 }
           compile_req
       with
      | Error (Protocol.Deadline, _) -> ()
      | Error (code, m) ->
        Alcotest.failf "undeadlined hang miscoded %s: %s"
          (Protocol.error_code_name code)
          m
      | Ok _ -> Alcotest.fail "hang:1.0 cannot succeed");
      Alcotest.(check bool) "undeadlined hang answered promptly" true
        (Unix.gettimeofday () -. t0 < 5.0);
      Alcotest.(check string) "worker free after the hang" expected
        (must_result "compile after hang" (Client.request c compile_req));
      let retried =
        must_result "compile under retried chaos"
          (Client.request c
             ~qos:
               { Protocol.default_qos with chaos = Some flaky; retries = 8 }
             compile_req)
      in
      Alcotest.(check string) "retried chaos byte-identical" expected retried;
      Client.close c;
      (* Connection-level chaos: faults land on throwaway connections,
         results stay byte-identical. *)
      let conn_chaos =
        match
          Protocol.conn_chaos_of_string
            "disconnect:0.4,slowloris:0.3,garbage:0.3,seed:2"
        with
        | Ok cc -> cc
        | Error e -> Alcotest.failf "conn chaos: %s" e
      in
      (match Client.connect ~chaos:conn_chaos test_socket with
      | Error e -> Alcotest.failf "chaos connect: %s" e
      | Ok cc ->
        for i = 1 to 4 do
          let p =
            must_result
              (Printf.sprintf "chaos request %d" i)
              (Client.request cc compile_req)
          in
          Alcotest.(check string) "chaos-run payload byte-identical" expected
            p
        done;
        Client.close cc);
      (* An unparseable envelope is answered (id 0, bad-request), then
         the connection is dropped; the server keeps serving. *)
      let raw = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Unix.connect raw (ADDR_UNIX test_socket);
      let junk = Harness.Frame.encode "]junk[" in
      ignore (Unix.write_substring raw junk 0 (String.length junk));
      let buf = Bytes.create 4096 in
      let rec read_resp raw dec =
        match Harness.Frame.next dec with
        | Ok (Some p) -> p
        | Ok None ->
          let n = Unix.read raw buf 0 (Bytes.length buf) in
          if n = 0 then Alcotest.fail "server closed before answering";
          Harness.Frame.feed dec (Bytes.sub_string buf 0 n);
          read_resp raw dec
        | Error e -> Alcotest.failf "client decoder poisoned: %s" e
      in
      (match Protocol.parse_response (read_resp raw (Harness.Frame.decoder ())) with
      | Ok (Protocol.Error_resp { id = 0; code = Protocol.Bad_request; _ }) ->
        ()
      | Ok _ -> Alcotest.fail "junk envelope must yield bad-request id 0"
      | Error e -> Alcotest.failf "junk response unparseable: %s" e);
      Unix.close raw;
      (* Raw control bytes, which the envelope parser accepts unescaped,
         grow sixfold when the envelope is re-rendered into the worker
         request: 3 MB of them is refused at admission with bad-request,
         and the server keeps serving. *)
      let raw = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Unix.connect raw (ADDR_UNIX test_socket);
      let marker = "@SOURCE@" in
      let env =
        Json.to_string
          (Protocol.envelope_to_json
             {
               Protocol.id = 9;
               qos = Protocol.default_qos;
               req =
                 Protocol.Measure
                   {
                     path = "ctl.c";
                     source = marker;
                     input = "";
                     machine = Ir.Machine.risc;
                   };
             })
      in
      let at = Option.get (String.index_from_opt env 0 '@') in
      let env =
        String.sub env 0 at
        ^ String.make 3_000_000 '\001'
        ^ String.sub env (at + String.length marker)
            (String.length env - at - String.length marker)
      in
      Harness.Frame.write_all raw (Harness.Frame.encode env);
      (match Protocol.parse_response (read_resp raw (Harness.Frame.decoder ())) with
      | Ok (Protocol.Error_resp { id = 9; code = Protocol.Bad_request; _ }) ->
        ()
      | Ok _ -> Alcotest.fail "oversized worker request must yield bad-request"
      | Error e -> Alcotest.failf "oversized response unparseable: %s" e);
      Unix.close raw;
      Alcotest.(check string) "server alive after the oversized request"
        "{\"pong\":true}"
        (must_result "ping after oversized"
           (let c = connect_retry test_socket in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () -> Client.request c Protocol.Ping)));
      (* Status reflects the traffic so far; then drain shuts the server
         down cleanly. *)
      let c2 = connect_retry test_socket in
      let status = must_result "status" (Client.request c2 Protocol.Status) in
      (match Json.parse status with
      | Ok doc ->
        Alcotest.(check (option bool))
          "not draining" (Some false)
          (Option.bind (Json.member "draining" doc) Json.get_bool);
        let metric name =
          match Json.member "metrics" doc with
          | Some m -> Option.bind (Json.member name m) Json.get_float
          | None -> None
        in
        (match metric "daemon.admitted" with
        | Some n -> Alcotest.(check bool) "admissions counted" true (n >= 6.0)
        | None -> Alcotest.fail "no daemon.admitted metric");
        (match metric "daemon.errors.crashed" with
        | Some n ->
          Alcotest.(check bool) "crash rejection counted" true (n >= 1.0)
        | None -> Alcotest.fail "no daemon.errors.crashed metric")
      | Error e -> Alcotest.failf "status payload unparseable: %s" e);
      ignore (must_result "drain" (Client.request c2 Protocol.Drain));
      Client.close c2;
      let res = Domain.join server in
      Alcotest.(check bool) "clean drain" true res.Server.clean;
      Alcotest.(check int) "nothing force-stopped" 0 res.Server.force_stopped)

let tests =
  ( "daemon",
    [
      Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
      Alcotest.test_case "decoder poisoning" `Quick test_decoder_poisoning;
      Alcotest.test_case "decoder fuzz" `Quick test_decoder_fuzz;
      Alcotest.test_case "decoder deep nesting" `Quick
        test_decoder_deep_nesting;
      Alcotest.test_case "envelope roundtrip" `Quick test_envelope_roundtrip;
      Alcotest.test_case "envelope strictness" `Quick
        test_envelope_strictness;
      Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
      Alcotest.test_case "connection chaos" `Quick test_conn_chaos;
      Alcotest.test_case "service lifecycle" `Quick test_service;
      Alcotest.test_case "server end to end" `Quick test_server_end_to_end;
    ] )
