(* Measurement harness consistency. *)

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
  (* The whole contract of the Pool-based sweep: at any domain count the
     results, the telemetry counters, the recorded verdicts and the event
     stream must equal the sequential run.  Only Pass_end wall-clock
     timings are normalized away — they differ between any two runs,
     parallel or not. *)
  let norm_event = function
    | Telemetry.Log.Pass_end e ->
      Telemetry.Log.Pass_end { e with elapsed_ms = 0.0 }
    | e -> e
  in
  (* Wall-clock and allocation are nondeterministic; the profiler's
     deterministic projection is which rows exist, how often each fired
     and the interpreter fuel. *)
  let profiler_sig p =
    ( List.map
        (fun (r : Telemetry.Profiler.pass_row) ->
          (r.p_func, r.p_pass, r.p_calls))
        (List.sort compare (Telemetry.Profiler.pass_rows p)),
      List.map
        (fun (r : Telemetry.Profiler.run_row) -> (r.r_run, r.r_fuel))
        (List.sort compare (Telemetry.Profiler.run_rows p)) )
  in
  let histogram_sig m name =
    List.filter_map
      (function
        | n, Telemetry.Metrics.VHistogram { counts; count; _ }
          when String.equal n name ->
          Some (Array.to_list counts, count)
        | _ -> None)
      (Telemetry.Metrics.snapshot m)
  in
  let sweep jobs =
    Harness.Measure.reset_cache ();
    let log = Telemetry.Log.make Telemetry.Log.Memory in
    let profiler = Telemetry.Profiler.create () in
    let pool_metrics = Telemetry.Metrics.create () in
    let results =
      Harness.Measure.run_suite ~log ~profiler ~metrics:pool_metrics ~jobs
        Opt.Driver.Jumps Ir.Machine.risc
    in
    ( List.map Harness.Measure.to_json results,
      Telemetry.Metrics.counters (Telemetry.Log.metrics log),
      List.map norm_event (Telemetry.Log.events log),
      (Harness.Measure.mismatches (), Harness.Measure.timeouts ()),
      profiler_sig profiler,
      histogram_sig (Telemetry.Log.metrics log) "measure.run_instrs",
      Telemetry.Metrics.counters pool_metrics )
  in
  let json1, counters1, events1, verdicts1, prof1, hist1, _pool1 = sweep 1 in
  Alcotest.(check bool) "sequential sweep nonempty" true (json1 <> []);
  Alcotest.(check bool) "counters accumulated" true (counters1 <> []);
  (let pass_rows, run_rows = prof1 in
   Alcotest.(check bool) "profiler saw passes" true (pass_rows <> []);
   Alcotest.(check bool) "profiler saw runs" true (run_rows <> []));
  Alcotest.(check bool) "run_instrs histogram filled" true (hist1 <> []);
  List.iter
    (fun jobs ->
      let json, counters, events, verdicts, prof, hist, pool = sweep jobs in
      Alcotest.(check (list string))
        (Printf.sprintf "results at -j %d" jobs)
        json1 json;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "counters at -j %d" jobs)
        counters1 counters;
      Alcotest.(check bool)
        (Printf.sprintf "event stream at -j %d" jobs)
        true
        (events = events1);
      Alcotest.(check bool)
        (Printf.sprintf "verdicts at -j %d" jobs)
        true
        (verdicts = verdicts1);
      Alcotest.(check bool)
        (Printf.sprintf "profiler shards merge deterministically at -j %d" jobs)
        true (prof = prof1);
      Alcotest.(check bool)
        (Printf.sprintf "histograms merge deterministically at -j %d" jobs)
        true (hist = hist1);
      (* The -j 1 fast path bypasses the pool; at higher -j the pool
         publishes its tallies, all zero without chaos or deadlines. *)
      Alcotest.(check bool)
        (Printf.sprintf "pool counters published at -j %d" jobs)
        true
        (List.mem ("pool.retried", 0) pool
        && List.mem ("pool.respawned", 0) pool
        && List.mem ("pool.injected_crashes", 0) pool))
    [ 2; 4 ]

(* --- the supervised pool --- *)

module Pool = Harness.Pool

let outcome_sig = function
  | Pool.Done v -> Printf.sprintf "done:%d" v
  | Pool.Crashed { attempts; _ } -> Printf.sprintf "crashed:%d" attempts
  | Pool.Timed_out { attempts; _ } -> Printf.sprintf "timed-out:%d" attempts

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
  let f _budget x = if x = 3 then failwith "boom" else x * x in
  let outcomes, _ = Pool.supervise ~jobs:2 ~retries:0 f [ 0; 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "all outcomes present" 6 (List.length outcomes);
  List.iteri
    (fun i o ->
      match o with
      | Pool.Done v -> Alcotest.(check int) "sibling value" (i * i) v
      | Pool.Crashed { exn; attempts; _ } ->
        Alcotest.(check int) "crashing index" 3 i;
        Alcotest.(check int) "no retries requested" 1 attempts;
        Alcotest.(check bool) "exception preserved" true (exn = Failure "boom")
      | Pool.Timed_out _ -> Alcotest.fail "unexpected timeout")
    outcomes

let test_flaky_retry () =
  (* First attempt of every task fails; the retry succeeds. *)
  let tries = Array.init 4 (fun _ -> Atomic.make 0) in
  let f _budget x =
    if Atomic.fetch_and_add tries.(x) 1 = 0 then failwith "transient"
    else x + 100
  in
  let outcomes, stats =
    Pool.supervise ~jobs:2 ~retries:2 ~backoff_base:0.001 f [ 0; 1; 2; 3 ]
  in
  List.iteri
    (fun i o ->
      match o with
      | Pool.Done v -> Alcotest.(check int) "recovered value" (i + 100) v
      | _ -> Alcotest.fail "task did not recover")
    outcomes;
  Alcotest.(check bool) "retries accounted" true (stats.Pool.retried >= 4)

let test_cooperative_cancel () =
  (* A task that polls its budget is cancelled at the deadline. *)
  let f budget x =
    if x = 0 then begin
      while true do
        Telemetry.Budget.check budget;
        Domain.cpu_relax ()
      done;
      assert false
    end
    else x
  in
  let outcomes, _ = Pool.supervise ~jobs:2 ~deadline:0.05 ~retries:0 f [ 0; 1 ] in
  match outcomes with
  | [ Pool.Timed_out { attempts = 1; elapsed }; Pool.Done 1 ] ->
    Alcotest.(check bool) "cancelled near the deadline" true
      (elapsed >= 0.04 && elapsed < 2.0)
  | _ -> Alcotest.fail "expected [Timed_out; Done 1]"

let test_hang_cannot_wedge_join () =
  (* A task that ignores its budget entirely: the watchdog abandons it and
     supervise still returns, with every sibling's result intact. *)
  let stop = Atomic.make false in
  let f _budget x =
    if x = 1 then begin
      while not (Atomic.get stop) do
        Domain.cpu_relax ()
      done;
      -1
    end
    else x * 10
  in
  let t0 = Unix.gettimeofday () in
  let outcomes, stats =
    Pool.supervise ~jobs:2 ~deadline:0.05 ~retries:0 f [ 0; 1; 2; 3 ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Atomic.set stop true;
  Alcotest.(check bool) "returned despite the wedged worker" true
    (elapsed < 5.0);
  Alcotest.(check bool) "hung attempt abandoned" true (stats.Pool.abandoned >= 1);
  List.iteri
    (fun i o ->
      match o with
      | Pool.Done v -> Alcotest.(check int) "sibling value" (i * 10) v
      | Pool.Timed_out { attempts = 1; _ } ->
        Alcotest.(check int) "hung index" 1 i
      | _ -> Alcotest.fail "unexpected outcome")
    outcomes

let test_chaos_crash_respawn () =
  (* crash rate 1.0: every attempt kills its worker; the supervisor must
     detect each death, respawn, and exhaust the retry budget. *)
  let chaos = { Pool.crash = 1.0; hang = 0.0; alloc = 0.0; chaos_seed = 3 } in
  let outcomes, stats =
    Pool.supervise ~jobs:2 ~retries:2 ~backoff_base:0.001 ~chaos
      (fun _budget x -> x)
      [ 0; 1; 2; 3 ]
  in
  List.iter
    (function
      | Pool.Crashed { exn = Pool.Chaos_crash; attempts = 3; _ } -> ()
      | o -> Alcotest.fail ("expected 3-attempt chaos crash, got " ^ outcome_sig o))
    outcomes;
  Alcotest.(check int) "every attempt injected" 12 stats.Pool.injected_crashes;
  Alcotest.(check bool) "dead workers respawned" true (stats.Pool.respawned > 0)

let test_chaos_determinism () =
  (* The fault schedule is pure in (seed, task, attempt): the parallel run
     must reproduce the inline run outcome for outcome, and completed
     tasks keep their correct values. *)
  let chaos = { Pool.crash = 0.4; hang = 0.0; alloc = 0.2; chaos_seed = 42 } in
  let stats_sig (s : Pool.stats) =
    let m = Telemetry.Metrics.create () in
    Pool.stats_to_metrics s m;
    Telemetry.Metrics.counters m
  in
  let run jobs =
    let outcomes, stats =
      Pool.supervise ~jobs ~retries:1 ~backoff_base:0.001 ~chaos
        (fun _budget x -> 3 * x)
        (List.init 12 Fun.id)
    in
    List.iteri
      (fun i o ->
        match o with
        | Pool.Done v -> Alcotest.(check int) "completed value correct" (3 * i) v
        | _ -> ())
      outcomes;
    (List.map outcome_sig outcomes, stats_sig stats)
  in
  let inline, tallies_inline = run 1 in
  let par, tallies_par = run 2 in
  let par', tallies_par' = run 2 in
  Alcotest.(check (list string)) "parallel matches inline schedule" inline par;
  Alcotest.(check (list string)) "parallel run repeatable" par par';
  (* The chaos tallies are part of the determinism contract too: the
     fault and retry counts a run publishes through stats_to_metrics must
     not depend on the domain count (they are derived from the same pure
     schedule).  pool.respawned is the exception, a scheduling artifact:
     the inline path has no worker domains to lose, and whether the
     supervisor bothers respawning after a late crash depends on how
     much work is left when it notices the death. *)
  let sans_respawn = List.filter (fun (n, _) -> n <> "pool.respawned") in
  Alcotest.(check (list (pair string int)))
    "chaos tallies match inline"
    (sans_respawn tallies_inline)
    (sans_respawn tallies_par);
  Alcotest.(check (list (pair string int)))
    "chaos tallies repeatable"
    (sans_respawn tallies_par)
    (sans_respawn tallies_par');
  let has prefix = List.exists (String.starts_with ~prefix) inline in
  Alcotest.(check bool) "schedule mixes faults and successes" true
    (has "done" && has "crashed")

let test_pool_map () =
  Alcotest.(check (list int))
    "map" [ 0; 1; 4; 9 ]
    (Pool.map ~jobs:2 (fun x -> x * x) [ 0; 1; 2; 3 ]);
  match Pool.map ~jobs:2 (fun x -> if x = 2 then raise Exit else x) [ 0; 1; 2; 3 ]
  with
  | _ -> Alcotest.fail "expected Exit to re-raise"
  | exception Exit -> ()

let test_run_many_chaos_zero_lost () =
  (* Chaos may abort tasks but must never lose one silently, and every
     completed measurement must equal its sequential counterpart. *)
  let b = wc () in
  let tasks =
    List.map
      (fun l -> (b, l, Ir.Machine.cisc))
      [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ]
  in
  Harness.Measure.reset_cache ();
  let baseline =
    Harness.Measure.run_many tasks |> List.map Harness.Measure.to_json
  in
  Harness.Measure.reset_cache ();
  let before = List.length (Harness.Measure.task_failures ()) in
  let chaos = { Pool.crash = 0.6; hang = 0.0; alloc = 0.0; chaos_seed = 5 } in
  let got =
    Harness.Measure.run_many ~jobs:2 ~retries:1 ~chaos tasks
    |> List.map Harness.Measure.to_json
  in
  let failed = List.length (Harness.Measure.task_failures ()) - before in
  Alcotest.(check int) "completed + failed = total" (List.length tasks)
    (List.length got + failed);
  List.iter
    (fun j ->
      Alcotest.(check bool) "completed result equals sequential" true
        (List.mem j baseline))
    got

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
      Alcotest.test_case "pool chaos crash respawn" `Quick
        test_chaos_crash_respawn;
      Alcotest.test_case "pool chaos determinism" `Quick test_chaos_determinism;
      Alcotest.test_case "pool map" `Quick test_pool_map;
      Alcotest.test_case "run_many chaos loses nothing" `Slow
        test_run_many_chaos_zero_lost;
    ] )
