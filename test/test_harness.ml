(* Measurement harness consistency. *)

module Pool = Harness.Pool

let wc () = Option.get (Programs.Suite.find "wc")

let test_measure_basics () =
  let m = Harness.Measure.run (wc ()) Opt.Driver.Simple Ir.Machine.risc in
  Alcotest.(check bool) "output verified" true m.output_ok;
  Alcotest.(check int) "eight cache configs" 8 (List.length m.caches);
  Alcotest.(check bool) "static positive" true (m.static_instrs > 0);
  Alcotest.(check bool) "dynamic >= static paths" true (m.dyn_instrs > 0);
  Alcotest.(check bool) "between-branches sensible" true
    (Harness.Measure.instrs_between_branches m > 1.0);
  List.iter
    (fun (c : Harness.Measure.cache_stats) ->
      Alcotest.(check bool) "miss ratio in range" true
        (c.miss_ratio >= 0.0 && c.miss_ratio <= 1.0);
      Alcotest.(check bool) "fetch cost positive" true (c.fetch_cost > 0))
    m.caches

let test_memoization () =
  let a = Harness.Measure.run (wc ()) Opt.Driver.Loops Ir.Machine.cisc in
  let b = Harness.Measure.run (wc ()) Opt.Driver.Loops Ir.Machine.cisc in
  Alcotest.(check bool) "memoized results identical" true (a = b)

let test_cache_cost_dominated_by_hits () =
  (* fetch_cost = hits + 10*misses, so cost >= accesses and
     cost <= 10*accesses. *)
  let m = Harness.Measure.run (wc ()) Opt.Driver.Simple Ir.Machine.cisc in
  List.iter
    (fun (c : Harness.Measure.cache_stats) ->
      let lo = float_of_int c.fetch_cost /. 10.0 in
      Alcotest.(check bool) "cost bounds" true
        (float_of_int c.fetch_cost >= lo))
    m.caches

let test_custom_options_not_memoized () =
  (* Runs with explicit options bypass the memo table. *)
  let opts =
    { Opt.Driver.default_options with
      level = Opt.Driver.Jumps;
      max_rtls = Some 1;
    }
  in
  let capped = Harness.Measure.run ~opts (wc ()) Opt.Driver.Jumps Ir.Machine.risc in
  let full = Harness.Measure.run (wc ()) Opt.Driver.Jumps Ir.Machine.risc in
  Alcotest.(check bool) "capped replication produces less code" true
    (capped.static_instrs <= full.static_instrs);
  Alcotest.(check bool) "capped run still correct" true capped.output_ok

let test_parallel_determinism () =
  (* The contract of the one sweep function: at any worker count the
     rows, the counters derived from them, the verdicts and the profiler
     rows equal the in-process sweep's. *)
  (* Wall-clock and allocation are nondeterministic; the profiler's
     deterministic projection is which rows exist and how often each
     fired. *)
  let profiler_sig p =
    List.map
      (fun (r : Telemetry.Profiler.pass_row) -> (r.p_func, r.p_pass, r.p_calls))
      (List.sort compare (Telemetry.Profiler.pass_rows p))
  in
  let tasks =
    List.map (fun b -> (b, Opt.Driver.Jumps, Ir.Machine.risc)) Programs.Suite.all
  in
  let sweep workers =
    let profiler = Telemetry.Profiler.create () in
    let rows, s =
      Campaign.Runner.sweep ~workers ~worker_argv:Test_worker.argv ~profiler
        tasks
    in
    ( List.map (fun (r : Campaign.Runner.row) -> r.r_row) rows,
      Helpers.sweep_counters rows,
      List.map
        (fun (r : Campaign.Runner.row) -> (r.r_program, r.r_output_ok, r.r_timed_out))
        rows,
      profiler_sig profiler,
      s.pool )
  in
  let json1, counters1, verdicts1, prof1, _ = sweep 0 in
  Alcotest.(check int) "in-process sweep complete" (List.length tasks)
    (List.length json1);
  Alcotest.(check (option int))
    "one run per task"
    (Some (List.length tasks))
    (List.assoc_opt "measure.runs" counters1);
  Alcotest.(check bool) "profiler saw passes" true (prof1 <> []);
  Alcotest.(check string) "row matches the direct measurement"
    (Telemetry.Json.to_string
       (Harness.Measure.to_json
          (Harness.Measure.run (List.hd Programs.Suite.all) Opt.Driver.Jumps
             Ir.Machine.risc)))
    (List.hd json1);
  List.iter
    (fun workers ->
      let json, counters, verdicts, prof, pool = sweep workers in
      Alcotest.(check (list string))
        (Printf.sprintf "results at -j %d" workers)
        json1 json;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "counters at -j %d" workers)
        counters1 counters;
      Alcotest.(check bool)
        (Printf.sprintf "verdicts at -j %d" workers)
        true
        (verdicts = verdicts1);
      Alcotest.(check bool)
        (Printf.sprintf "profiler rows merge deterministically at -j %d" workers)
        true (prof = prof1);
      (* The supervisor's tallies, all zero without chaos or deadlines. *)
      Alcotest.(check bool)
        (Printf.sprintf "pool stats clean at -j %d" workers)
        true
        (Pool.injected pool = 0
        && pool.retried = 0 && pool.respawned = 0 && pool.abandoned = 0))
    [ 2; 4 ]

(* --- the supervised pool --- *)

let outcome_sig = function
  | Pool.Done v -> Printf.sprintf "done:%s" v
  | Pool.Crashed { attempts; _ } -> Printf.sprintf "crashed:%d" attempts
  | Pool.Timed_out { attempts; _ } -> Printf.sprintf "timed-out:%d" attempts

let on_workers ?deadline ?(retries = 0) ?chaos ?trace reqs =
  Pool.run ~workers:2 ~argv:Test_worker.argv ?deadline ~retries
    ~backoff_base:0.001 ?chaos ?trace ~handler:Test_worker.inline reqs

let test_backoff_schedule () =
  let chk name exp got = Alcotest.(check (float 1e-9)) name exp got in
  chk "attempt 1" 0.05 (Pool.backoff 1);
  chk "attempt 2" 0.1 (Pool.backoff 2);
  chk "attempt 3" 0.2 (Pool.backoff 3);
  chk "attempt 4" 0.4 (Pool.backoff 4);
  chk "attempt 5 hits cap" 0.8 (Pool.backoff 5);
  chk "attempt 9 stays capped" 0.8 (Pool.backoff 9);
  chk "custom base" 0.02 (Pool.backoff ~base:0.01 2);
  chk "custom cap" 0.3 (Pool.backoff ~cap:0.3 9)

let test_chaos_parse () =
  (match Pool.chaos_of_string "crash:0.2,hang:0.05,seed:7" with
  | Ok c ->
    Alcotest.(check (float 1e-9)) "crash rate" 0.2 c.Pool.crash;
    Alcotest.(check (float 1e-9)) "hang rate" 0.05 c.Pool.hang;
    Alcotest.(check (float 1e-9)) "alloc off" 0.0 c.Pool.alloc;
    Alcotest.(check int) "seed" 7 c.Pool.chaos_seed
  | Error e -> Alcotest.fail e);
  (match Pool.chaos_of_string "hang" with
  | Ok c -> Alcotest.(check (float 1e-9)) "default rate" 0.1 c.Pool.hang
  | Error e -> Alcotest.fail e);
  let rejects spec =
    match Pool.chaos_of_string spec with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted bad spec %S" spec)
    | Error _ -> ()
  in
  rejects "";
  rejects "seed:3";
  rejects "crash:2";
  rejects "bogus:0.1"

let test_default_jobs () =
  Unix.putenv "JUMPREP_JOBS" "3";
  Alcotest.(check int) "parsed" 3 (Pool.default_jobs ());
  Unix.putenv "JUMPREP_JOBS" "abc";
  Alcotest.(check int) "unparsable falls back to 1" 1 (Pool.default_jobs ());
  Unix.putenv "JUMPREP_JOBS" "99999";
  Alcotest.(check int) "absurd value clamped"
    (Domain.recommended_domain_count ())
    (Pool.default_jobs ());
  Unix.putenv "JUMPREP_JOBS" ""

let test_crash_isolation () =
  (* One task crashing must not cost any sibling its result. *)
  let reqs = [ "sq 0"; "sq 1"; "sq 2"; "boom"; "sq 4"; "sq 5" ] in
  let outcomes, _ = on_workers reqs in
  Alcotest.(check int) "all outcomes present" 6 (List.length outcomes);
  List.iteri
    (fun i o ->
      match o with
      | Pool.Done v -> Alcotest.(check string) "sibling value" (string_of_int (i * i)) v
      | Pool.Crashed { exn; attempts; _ } ->
        Alcotest.(check int) "crashing index" 3 i;
        Alcotest.(check int) "no retries requested" 1 attempts;
        Alcotest.(check bool) "handler exception reported" true
          (match exn with
          | Pool.Worker_failed msg -> msg = Printexc.to_string (Failure "boom")
          | _ -> false)
      | Pool.Timed_out _ -> Alcotest.fail "unexpected timeout")
    outcomes

let test_flaky_retry () =
  (* Each worker process fails the first attempt it sees of a task; a
     retry (on either worker) succeeds within the budget. *)
  let outcomes, stats =
    on_workers ~retries:2 [ "flaky 0"; "flaky 1"; "flaky 2"; "flaky 3" ]
  in
  List.iteri
    (fun i o ->
      match o with
      | Pool.Done v -> Alcotest.(check string) "recovered value" (string_of_int (i + 100)) v
      | _ -> Alcotest.fail "task did not recover")
    outcomes;
  Alcotest.(check bool) "retries accounted" true (stats.Pool.retried >= 4)

let test_cooperative_cancel () =
  (* In-process, a task that polls its budget is cancelled at the
     deadline. *)
  let handler budget req =
    if req = "spin" then begin
      while true do
        Telemetry.Budget.check budget
      done;
      assert false
    end
    else req
  in
  let outcomes, _ =
    Pool.run ~deadline:0.05 ~retries:0 ~handler [ "spin"; "1" ]
  in
  match outcomes with
  | [ Pool.Timed_out { attempts = 1; elapsed }; Pool.Done "1" ] ->
    Alcotest.(check bool) "cancelled near the deadline" true
      (elapsed >= 0.04 && elapsed < 2.0)
  | _ -> Alcotest.fail "expected [Timed_out; Done 1]"

let test_hang_cannot_wedge_join () =
  (* A worker spinning forever and ignoring every budget is SIGKILLed at
     the deadline: the call returns promptly and every sibling's value is
     intact. *)
  let t0 = Unix.gettimeofday () in
  let outcomes, stats =
    on_workers ~deadline:1.0 [ "sq 0"; "spin"; "sq 2"; "sq 3" ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "returned despite the spinning worker" true
    (elapsed < 5.0);
  Alcotest.(check int) "spinning worker killed" 1 stats.Pool.abandoned;
  Alcotest.(check int) "killed worker respawned" 1 stats.Pool.respawned;
  List.iteri
    (fun i o ->
      match o with
      | Pool.Done v -> Alcotest.(check string) "sibling value" (string_of_int (i * i)) v
      | Pool.Timed_out { attempts = 1; _ } ->
        Alcotest.(check int) "spinning index" 1 i
      | _ -> Alcotest.fail "unexpected outcome")
    outcomes

let test_hang_without_deadline () =
  (* A chaos hang drawn for a request with no deadline is charged as a
     timeout without running, on workers as in-process: nothing would
     ever kill a hung worker. *)
  let chaos = { Pool.crash = 0.0; hang = 1.0; alloc = 0.0; chaos_seed = 5 } in
  let reqs = List.init 4 (fun i -> Printf.sprintf "sq %d" i) in
  let t0 = Unix.gettimeofday () in
  let on_w, st = on_workers ~retries:1 ~chaos reqs in
  Alcotest.(check bool) "returns promptly" true (Unix.gettimeofday () -. t0 < 5.0);
  let here, _ =
    Pool.run ~retries:1 ~backoff_base:0.001 ~chaos ~handler:Test_worker.inline reqs
  in
  Alcotest.(check (list string)) "every attempt timed out"
    (List.init 4 (fun _ -> "timed-out:2"))
    (List.map outcome_sig on_w);
  Alcotest.(check (list string)) "same outcomes in-process"
    (List.map outcome_sig here) (List.map outcome_sig on_w);
  Alcotest.(check int) "hangs injected" 8 st.Pool.injected_hangs;
  Alcotest.(check int) "no worker killed" 0 st.Pool.abandoned;
  Alcotest.(check int) "no worker respawned" 0 st.Pool.respawned

let test_streamed_in_order () =
  (* [on_done] reports each request as soon as it and every earlier one
     have settled: in-process, before the next request runs. *)
  let log = ref [] in
  let handler _ req =
    log := ("run " ^ req) :: !log;
    req
  in
  let on_done i o = log := Printf.sprintf "done %d %s" i (outcome_sig o) :: !log in
  ignore (Pool.run ~on_done ~handler [ "a"; "b"; "c" ]);
  Alcotest.(check (list string)) "interleaved"
    [ "run a"; "done 0 done:a"; "run b"; "done 1 done:b"; "run c"; "done 2 done:c" ]
    (List.rev !log);
  (* On workers the order holds whatever order the replies arrive in. *)
  let seen = ref [] in
  let outcomes, _ =
    Pool.run ~workers:2 ~argv:Test_worker.argv
      ~on_done:(fun i o -> seen := (i, outcome_sig o) :: !seen)
      ~handler:Test_worker.inline
      [ "pidfile /dev/null 0"; "sq 1"; "sq 2"; "sq 3" ]
  in
  Alcotest.(check (list (pair int string))) "in input order, once each"
    (List.mapi (fun i o -> (i, outcome_sig o)) outcomes)
    (List.rev !seen)

let test_oversized_frames () =
  (* A request too large to frame ends [Crashed] without being sent; a
     reply too large to frame is a crash reply and the worker lives on. *)
  let big_req = String.make (Pool.max_request + 1) 'x' in
  let outcomes, st =
    on_workers [ "sq 1"; big_req; Printf.sprintf "big %d" Harness.Frame.max_frame; "sq 3" ]
  in
  (match outcomes with
  | [ Pool.Done "1";
      Pool.Crashed { exn = Invalid_argument _; attempts = 1; _ };
      Pool.Crashed { exn = Pool.Worker_failed msg; attempts = 1; _ };
      Pool.Done "9" ] ->
    Alcotest.(check bool) "reply cap named" true
      (let sub = "frame cap" in
       let n = String.length sub in
       let rec has i =
         i + n <= String.length msg && (String.sub msg i n = sub || has (i + 1))
       in
       has 0)
  | os ->
    Alcotest.failf "outcomes: %s"
      (String.concat ", "
         (List.map
            (function
              | Pool.Crashed { exn; _ } -> Printexc.to_string exn
              | o -> outcome_sig o)
            os)));
  Alcotest.(check int) "no worker lost" 0 st.Pool.respawned

let test_external_kill () =
  (* A worker SIGKILLed from outside mid-task (no chaos involved): its
     task completes on the respawned worker, siblings are intact.  The
     killer is a helper process started before the run; it waits for
     task 0's pid file and kills the worker that wrote it, which then
     sleeps 0.3s before replying. *)
  let dir = Filename.temp_dir "jumprep-pool" "" in
  let pidfile i = Filename.concat dir (string_of_int i) in
  let killer =
    Unix.create_process "sh"
      [|
        "sh";
        "-c";
        (* Give up after ~20s, so a broken run cannot leave it behind. *)
        "for i in $(seq 2000); do if [ -s \"$1\" ]; then kill -9 \
         $(cat \"$1\"); exit; fi; sleep 0.01; done; exit 1";
        "killer";
        pidfile 0;
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let outcomes, st =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill killer Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] killer))
      (fun () ->
        on_workers ~retries:1
          (List.init 4 (fun i -> Printf.sprintf "pidfile %s %d" (pidfile i) i)))
  in
  List.iteri
    (fun i o ->
      match o with
      | Pool.Done v -> Alcotest.(check string) "value" (string_of_int i) v
      | o -> Alcotest.failf "task %d: %s" i (Pool.outcome_kind o))
    outcomes;
  Alcotest.(check bool) "killed worker respawned" true (st.Pool.respawned >= 1);
  Alcotest.(check int) "task 0 retried once" 1 st.Pool.retried

let test_respawn_keeps_lane () =
  (* A respawned worker inherits its predecessor's trace lane: after a
     chaos kill, spans still land on lanes 1 and 2 only, and the lane
     named by the respawn carries a span that starts after it.  The seed
     is picked through the pure fault draw so that only task 0's first
     attempt crashes. *)
  let chaos seed = { Pool.crash = 0.5; hang = 0.0; alloc = 0.0; chaos_seed = seed } in
  let only_first seed =
    let fault task attempt = Pool.chaos_fault (chaos seed) ~task ~attempt in
    fault 0 1 = Some `Crash
    && fault 0 2 = None
    && List.for_all (fun task -> fault task 1 = None) [ 1; 2; 3 ]
  in
  let seed = Seq.find only_first (Seq.ints 1) |> Option.get in
  let trace = Telemetry.Trace.create () in
  let outs, st =
    on_workers ~retries:1 ~chaos:(chaos seed) ~trace
      (List.init 4 (Printf.sprintf "sq %d"))
  in
  Alcotest.(check (list string)) "values after the respawn"
    [ "done:0"; "done:1"; "done:4"; "done:9" ]
    (List.map outcome_sig outs);
  Alcotest.(check int) "one crash injected" 1 st.Pool.injected_crashes;
  let evs =
    Option.value ~default:[]
      (Option.bind (Telemetry.Json.member "traceEvents" (Telemetry.Trace.to_json trace))
         Telemetry.Json.to_list)
  in
  let get name e = Telemetry.Json.member name e in
  let num name e = Option.value ~default:0. (Option.bind (get name e) Telemetry.Json.get_float) in
  let ph e = Option.bind (get "ph" e) Telemetry.Json.get_string in
  let spans = List.filter (fun e -> ph e = Some "X") evs in
  let lanes = List.sort_uniq compare (List.map (num "tid") spans) in
  Alcotest.(check (list (float 0.))) "spans only on lanes 1 and 2" [ 1.; 2. ] lanes;
  let respawns =
    List.filter
      (fun e -> Option.bind (get "name" e) Telemetry.Json.get_string = Some "worker-respawn")
      evs
  in
  match respawns with
  | [ r ] ->
    let lane =
      Option.value ~default:0.
        (Option.bind (get "args" r) (fun a -> Option.bind (get "worker" a) Telemetry.Json.get_float))
    in
    Alcotest.(check bool) "respawned lane carries a later span" true
      (List.exists (fun e -> num "tid" e = lane && num "ts" e >= num "ts" r) spans)
  | _ -> Alcotest.failf "expected one respawn, saw %d" (List.length respawns)

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
     nested '[': the decoder must hand it over and [Json.parse] must
     answer a parse [Error] — a worker parses every request it is sent,
     so a [Stack_overflow] here would kill the worker, not answer the
     request. *)
  let payload = String.make 4_000_000 '[' in
  let dec = Harness.Frame.decoder () in
  Harness.Frame.feed dec (Harness.Frame.encode payload);
  match Harness.Frame.next dec with
  | Ok (Some p) -> (
    Alcotest.(check int) "payload intact" (String.length payload) (String.length p);
    match Telemetry.Json.parse p with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "deeply nested garbage must not parse"
    | exception e ->
      Alcotest.failf "Json.parse raised on deep nesting: %s"
        (Printexc.to_string e))
  | Ok None -> Alcotest.fail "complete frame not yielded"
  | Error e -> Alcotest.failf "legal frame poisoned the decoder: %s" e

let test_chaos_crash_respawn () =
  (* crash rate 1.0: every attempt kills its worker; the supervisor must
     detect each death, respawn, and exhaust the retry budget. *)
  let chaos = { Pool.crash = 1.0; hang = 0.0; alloc = 0.0; chaos_seed = 3 } in
  let outcomes, stats =
    on_workers ~retries:2 ~chaos [ "sq 0"; "sq 1"; "sq 2"; "sq 3" ]
  in
  List.iter
    (function
      | Pool.Crashed { exn = Pool.Chaos_crash; attempts = 3; _ } -> ()
      | o -> Alcotest.fail ("expected 3-attempt chaos crash, got " ^ outcome_sig o))
    outcomes;
  Alcotest.(check int) "every attempt injected" 12 stats.Pool.injected_crashes;
  Alcotest.(check bool) "dead workers respawned" true (stats.Pool.respawned > 0)

let test_chaos_determinism () =
  (* The fault schedule is pure in (seed, task, attempt): the worker run
     must reproduce the in-process run outcome for outcome, and
     completed tasks keep their correct values. *)
  let chaos = { Pool.crash = 0.4; hang = 0.0; alloc = 0.2; chaos_seed = 42 } in
  let reqs = List.init 12 (Printf.sprintf "sq %d") in
  let check_values outcomes =
    List.iteri
      (fun i o ->
        match o with
        | Pool.Done v ->
          Alcotest.(check string) "completed value correct" (string_of_int (i * i)) v
        | _ -> ())
      outcomes
  in
  let run workers =
    let outcomes, stats =
      if workers = 0 then
        Pool.run ~retries:1 ~backoff_base:0.001 ~chaos ~handler:Test_worker.inline reqs
      else on_workers ~retries:1 ~chaos reqs
    in
    check_values outcomes;
    (List.map outcome_sig outcomes, stats)
  in
  let inline, tallies_inline = run 0 in
  let par, tallies_par = run 2 in
  let par', tallies_par' = run 2 in
  Alcotest.(check (list string)) "workers match the in-process schedule" inline par;
  Alcotest.(check (list string)) "worker run repeatable" par par';
  (* The chaos tallies are part of the determinism contract too: the
     fault and retry counts must not depend on the worker count (they
     come from the same pure schedule).  [respawned] is the exception, a
     scheduling artifact: the in-process path has no worker to lose. *)
  let sans_respawn (s : Pool.stats) = { s with respawned = 0 } in
  Alcotest.(check bool) "chaos tallies match in-process" true
    (sans_respawn tallies_inline = sans_respawn tallies_par);
  Alcotest.(check bool) "chaos tallies repeatable" true
    (sans_respawn tallies_par = sans_respawn tallies_par');
  let has prefix = List.exists (String.starts_with ~prefix) inline in
  Alcotest.(check bool) "schedule mixes faults and successes" true
    (has "done" && has "crashed")

let test_sweep_chaos_zero_lost () =
  (* Chaos may abort tasks but must never lose one silently, and every
     completed measurement must equal its in-process counterpart. *)
  let b = wc () in
  let tasks =
    List.map
      (fun l -> (b, l, Ir.Machine.cisc))
      [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ]
  in
  let rows s = List.map (fun (r : Campaign.Runner.row) -> r.r_row) s in
  let baseline, _ = Campaign.Runner.sweep tasks in
  let chaos = { Pool.crash = 0.6; hang = 0.0; alloc = 0.0; chaos_seed = 5 } in
  let got, s =
    Campaign.Runner.sweep ~workers:2 ~worker_argv:Test_worker.argv ~retries:1
      ~chaos tasks
  in
  Alcotest.(check int) "completed + failed = total" (List.length tasks)
    (List.length got + List.length s.failures);
  List.iter
    (fun j ->
      Alcotest.(check bool) "completed result equals in-process" true
        (List.mem j (rows baseline)))
    (rows got)

let tests =
  ( "harness",
    [
      Alcotest.test_case "measure basics" `Quick test_measure_basics;
      Alcotest.test_case "memoization" `Quick test_memoization;
      Alcotest.test_case "fetch cost bounds" `Quick test_cache_cost_dominated_by_hits;
      Alcotest.test_case "custom options" `Quick test_custom_options_not_memoized;
      Alcotest.test_case "parallel sweep determinism" `Slow
        test_parallel_determinism;
      Alcotest.test_case "pool backoff schedule" `Quick test_backoff_schedule;
      Alcotest.test_case "pool chaos spec parsing" `Quick test_chaos_parse;
      Alcotest.test_case "pool default jobs" `Quick test_default_jobs;
      Alcotest.test_case "pool crash isolation" `Quick test_crash_isolation;
      Alcotest.test_case "pool flaky retry" `Quick test_flaky_retry;
      Alcotest.test_case "pool cooperative cancel" `Quick
        test_cooperative_cancel;
      Alcotest.test_case "pool hung task cannot wedge join" `Slow
        test_hang_cannot_wedge_join;
      Alcotest.test_case "pool worker killed mid-task" `Quick test_external_kill;
      Alcotest.test_case "pool hang without deadline" `Quick
        test_hang_without_deadline;
      Alcotest.test_case "pool streams outcomes in order" `Quick
        test_streamed_in_order;
      Alcotest.test_case "pool oversized frames" `Quick test_oversized_frames;
      Alcotest.test_case "pool respawn keeps the lane" `Quick
        test_respawn_keeps_lane;
      Alcotest.test_case "pool chaos crash respawn" `Quick
        test_chaos_crash_respawn;
      Alcotest.test_case "pool chaos determinism" `Quick test_chaos_determinism;
      Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
      Alcotest.test_case "decoder poisoning" `Quick test_decoder_poisoning;
      Alcotest.test_case "decoder fuzz" `Quick test_decoder_fuzz;
      Alcotest.test_case "decoder deep nesting" `Quick
        test_decoder_deep_nesting;
      Alcotest.test_case "sweep chaos loses nothing" `Slow
        test_sweep_chaos_zero_lost;
    ] )
