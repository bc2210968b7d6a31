(* Telemetry invariants: pass deltas reconcile with the compiled code,
   every rollback names a reason, the null sink emits nothing, counters
   accumulate only on enabled logs. *)

let wc () = Option.get (Programs.Suite.find "wc")

let contains s affix =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let compile_logged ?(machine = Ir.Machine.cisc)
    ?(opts = { Opt.Driver.default_options with level = Opt.Driver.Jumps }) src =
  let log = Telemetry.Log.make Telemetry.Log.Memory in
  let prog = Opt.Driver.compile ~log opts machine src in
  (log, prog)

(* (a) Per-function Pass_end deltas chain (pass k's instrs_after is pass
   k+1's instrs_before) and land exactly on the final function size. *)
let test_deltas_reconcile () =
  let log, prog = compile_logged (wc ()).source in
  let events = Telemetry.Log.events log in
  List.iter
    (fun f ->
      let fname = Flow.Func.name f in
      let ends =
        List.filter_map
          (function
            | Telemetry.Log.Pass_end e when String.equal e.func fname ->
              Some e.delta
            | _ -> None)
          events
      in
      Alcotest.(check bool)
        (fname ^ " has pass events") true
        (List.length ends > 0);
      let first = List.hd ends in
      let rec chain prev = function
        | [] -> prev
        | (d : Telemetry.Log.delta) :: rest ->
          Alcotest.(check int)
            (fname ^ " deltas chain")
            prev d.instrs_before;
          chain d.instrs_after rest
      in
      let final = chain first.instrs_before ends in
      (* The sum of per-pass deltas is the end-to-end change... *)
      let summed =
        List.fold_left
          (fun acc (d : Telemetry.Log.delta) ->
            acc + d.instrs_after - d.instrs_before)
          first.instrs_before ends
      in
      Alcotest.(check int) (fname ^ " delta sum = final") final summed;
      (* ...and the final count is the function the compiler returned. *)
      Alcotest.(check int)
        (fname ^ " final instrs")
        (Flow.Func.num_instrs f) final)
    prog.Flow.Prog.funcs

(* (b) Every Replication_rolled_back event carries a nameable reason.  A
   max_rtls of 0 filters every candidate, forcing Size_cap rollbacks. *)
let test_rollback_reasons () =
  let opts =
    {
      Opt.Driver.default_options with
      level = Opt.Driver.Jumps;
      max_rtls = Some 0;
    }
  in
  let log, _ = compile_logged ~opts (wc ()).source in
  let rollbacks =
    List.filter_map
      (function
        | Telemetry.Log.Replication_rolled_back { reason; jump_from; jump_to; _ }
          ->
          Some (reason, jump_from, jump_to)
        | _ -> None)
      (Telemetry.Log.events log)
  in
  Alcotest.(check bool) "capped pipeline rolls back" true (rollbacks <> []);
  List.iter
    (fun (reason, jump_from, jump_to) ->
      Alcotest.(check bool)
        "reason renders" true
        (String.length (Telemetry.Log.reason_to_string reason) > 0);
      Alcotest.(check bool) "labels present" true
        (jump_from <> "" && jump_to <> ""))
    rollbacks;
  (* With every candidate over the cap, the rejections are all Size_cap. *)
  Alcotest.(check bool) "cap rollbacks are size-cap" true
    (List.exists (fun (r, _, _) -> r = Telemetry.Log.Size_cap) rollbacks)

(* (c) The null sink emits nothing: same compile, zero events, and the
   thunks are never forced. *)
let test_null_sink () =
  let forced = ref 0 in
  Telemetry.Log.emit Telemetry.Log.null (fun () ->
      incr forced;
      Telemetry.Log.Warning { message = "never" });
  let _ =
    Opt.Driver.compile ~log:Telemetry.Log.null
      { Opt.Driver.default_options with level = Opt.Driver.Jumps }
      Ir.Machine.cisc (wc ()).source
  in
  Alcotest.(check int) "no thunks forced" 0 !forced;
  Alcotest.(check int) "no events emitted" 0
    (Telemetry.Log.emitted Telemetry.Log.null)

(* A closed thunk: it captures nothing, so passing it allocates nothing. *)
let null_forced = ref 0

let never_forced () =
  incr null_forced;
  Telemetry.Log.Warning { message = "never" }

(* Emitting into [Log.null] is one branch: 100,000 calls force nothing
   and allocate no more than the few words reading [Gc.minor_words]
   itself costs, however many calls there are. *)
let test_null_alloc () =
  let words calls =
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      Telemetry.Log.emit Telemetry.Log.null never_forced
    done;
    Gc.minor_words () -. before
  in
  let few = words 10 and many = words 100_000 in
  Alcotest.(check int) "no thunks forced" 0 !null_forced;
  Alcotest.(check bool)
    (Printf.sprintf "constant allocation (%.0f words for 10, %.0f for 100000)"
       few many)
    true
    (many <= 16.0 && many <= few)

(* Memory-sink bookkeeping: emitted = stored, in order. *)
let test_memory_sink () =
  let log = Telemetry.Log.make Telemetry.Log.Memory in
  for i = 1 to 5 do
    Telemetry.Log.emit log (fun () ->
        Telemetry.Log.Sim_progress { instrs = i })
  done;
  Alcotest.(check int) "emitted" 5 (Telemetry.Log.emitted log);
  let instrs =
    List.filter_map
      (function Telemetry.Log.Sim_progress { instrs } -> Some instrs | _ -> None)
      (Telemetry.Log.events log)
  in
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5 ] instrs

(* Measure threads the log: a mismatch warns. *)
let test_measure_telemetry () =
  let log = Telemetry.Log.make Telemetry.Log.Memory in
  let b = wc () in
  (* A wrong expectation must surface as a Warning event. *)
  let _ =
    Harness.Measure.run ~log
      ~opts:{ Opt.Driver.default_options with level = Opt.Driver.Simple }
      { b with expected_output = "not what wc prints" }
      Opt.Driver.Simple Ir.Machine.cisc
  in
  let warnings =
    List.filter_map
      (function Telemetry.Log.Warning { message } -> Some message | _ -> None)
      (Telemetry.Log.events log)
  in
  Alcotest.(check bool) "mismatch warned" true
    (List.exists (fun m -> contains m "MISMATCH") warnings)

(* explain names a decision for every unconditional jump left in place. *)
let test_explain_covers_all_jumps () =
  let prog =
    Opt.Driver.compile
      { Opt.Driver.default_options with level = Opt.Driver.Simple }
      Ir.Machine.cisc (wc ()).source
  in
  List.iter
    (fun f ->
      let jumps = Replication.Jumps.uncond_jumps f in
      let decisions = Replication.Jumps.explain f in
      Alcotest.(check int)
        (Flow.Func.name f ^ " every jump decided")
        (List.length jumps) (List.length decisions);
      List.iter
        (fun (_, d) ->
          Alcotest.(check bool) "decision renders" true
            (String.length (Replication.Jumps.decision_to_string d) > 0))
        decisions)
    prog.Flow.Prog.funcs

(* JSONL lines look like single JSON objects with the event tag. *)
let test_jsonl_shape () =
  let ev =
    Telemetry.Log.Replication_rolled_back
      {
        func = "f";
        jump_from = "L1";
        jump_to = "L\"2";
        reason = Telemetry.Log.Irreducible;
      }
  in
  let line =
    Telemetry.Json.to_string (Telemetry.Log.event_to_json ~seq:7 ~t_ms:1.5 ev)
  in
  Alcotest.(check bool) "object" true
    (String.length line > 2 && line.[0] = '{' && line.[String.length line - 1] = '}');
  let has affix = contains line affix in
  Alcotest.(check bool) "tagged" true (has "\"ev\":\"replication_rolled_back\"");
  Alcotest.(check bool) "escaped" true (has "L\\\"2");
  Alcotest.(check bool) "reason" true (has "\"reason\":\"irreducible\"");
  Alcotest.(check bool) "no raw newline" true
    (not (String.contains line '\n'));
  (* Control characters and backslashes, pinned byte for byte. *)
  let ev =
    Telemetry.Log.Replication_rolled_back
      {
        func = "f\n\t\\\x01g";
        jump_from = "L\t1";
        jump_to = "L\\\n2";
        reason = Telemetry.Log.Irreducible;
      }
  in
  Alcotest.(check string) "escaped bytes"
    {|{"seq":7,"t_ms":1.500,"ev":"replication_rolled_back","func":"f\n\t\\\u0001g","jump_from":"L\t1","jump_to":"L\\\n2","reason":"irreducible"}|}
    (Telemetry.Json.to_string (Telemetry.Log.event_to_json ~seq:7 ~t_ms:1.5 ev))

(* A diagnostic's JSON quotes like the event log: quote, backslash and
   control characters, pinned byte for byte. *)
let test_diag_json_bytes () =
  let d =
    Telemetry.Diag.make Telemetry.Diag.Internal ~func:"f\"1" ~pass:"p\\2"
      "a\"b\\c\nd\te\x01f"
  in
  Alcotest.(check string) "escaped bytes"
    {|{"code":"internal","severity":"error","func":"f\"1","pass":"p\\2","message":"a\"b\\c\nd\te\u0001f"}|}
    (Telemetry.Json.to_string (Telemetry.Diag.to_json d))

(* --- JSON, traces and the profiler (observability v2) --- *)

module Json = Telemetry.Json
module Trace = Telemetry.Trace
module Profiler = Telemetry.Profiler

(* The JSON emitted by the trace collector is well-formed (our own strict
   parser accepts it) and structurally what Perfetto expects. *)
let test_trace_json () =
  let t = Trace.create () in
  Trace.process_name t "test";
  Trace.thread_name t ~tid:0 "supervisor";
  Trace.thread_name t ~tid:1 "worker-1";
  let ts = Trace.now_us t in
  Trace.complete t ~tid:1 ~name:"task \"quoted\"" ~ts_us:ts ~dur_us:42.5
    ~args:[ ("attempt", Json.Int 1) ] ();
  Trace.instant t ~tid:0 ~cat:"chaos" "chaos-crash";
  Alcotest.(check int) "all recorded" 5 (Trace.events t);
  let s = Json.to_string (Trace.to_json t) in
  match Json.parse s with
  | Error e -> Alcotest.fail ("trace JSON does not re-parse: " ^ e)
  | Ok doc ->
    Alcotest.(check (option string))
      "displayTimeUnit" (Some "ms")
      (Option.bind (Json.member "displayTimeUnit" doc) Json.get_string);
    let evs =
      Option.get (Option.bind (Json.member "traceEvents" doc) Json.to_list)
    in
    Alcotest.(check int) "five events" 5 (List.length evs);
    let field name ev = Option.bind (Json.member name ev) Json.get_string in
    let phases = List.filter_map (field "ph") evs in
    Alcotest.(check int) "metadata events" 3
      (List.length (List.filter (String.equal "M") phases));
    Alcotest.(check int) "complete spans" 1
      (List.length (List.filter (String.equal "X") phases));
    Alcotest.(check int) "instants" 1
      (List.length (List.filter (String.equal "i") phases));
    (* Sorted by timestamp, every event stamped with pid/tid/ts. *)
    let ts_of ev =
      Option.get (Option.bind (Json.member "ts" ev) Json.get_float)
    in
    let stamps = List.map ts_of evs in
    Alcotest.(check bool) "sorted by ts" true
      (List.sort compare stamps = stamps);
    List.iter
      (fun ev ->
        Alcotest.(check bool) "pid present" true
          (Json.member "pid" ev <> None);
        Alcotest.(check bool) "tid present" true
          (Json.member "tid" ev <> None))
      evs

(* The shared JSON value: renderer/parser round-trip, fixed-decimal
   numbers, and escape corners. *)
let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\tt");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("a", Json.Arr [ Json.Int 1; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  let s = Json.to_string doc in
  (match Json.parse s with
  | Error e -> Alcotest.fail e
  | Ok back ->
    Alcotest.(check string) "print/parse/print fixpoint" s
      (Json.to_string back));
  (* Fixed renders exactly its decimals, where Float would print 0.0,
     5.0 and 12345.0, and reads back as the number it renders. *)
  List.iter
    (fun (decimals, f, want, float_prints) ->
      let fixed = Json.Fixed (decimals, f) in
      Alcotest.(check string) ("fixed " ^ want) want (Json.to_string fixed);
      Alcotest.(check bool) ("float differs from " ^ want) true
        (Json.to_string (Json.Float f) = float_prints && float_prints <> want);
      match Json.parse want with
      | Error e -> Alcotest.fail e
      | Ok back ->
        Alcotest.(check (option (float 0.))) ("reads back " ^ want)
          (Json.get_float back) (Json.get_float fixed))
    [
      (6, 0.0, "0.000000", "0.0");
      (3, 5.0, "5.000", "5.0");
      (0, 12345.0, "12345", "12345.0");
    ];
  Alcotest.(check (option (float 0.))) "fixed reads as rendered" (Some 0.123)
    (Json.get_float (Json.Fixed (3, 0.12345)));
  (* Malformed inputs are rejected, not mangled. *)
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.fail ("accepted malformed: " ^ bad)
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "" ]

(* One results row, byte for byte: a zero miss ratio keeps its six
   decimals and an integer-valued instrs_between_branches its three. *)
let test_measure_row_bytes () =
  let cache context_switches =
    {
      Harness.Measure.config =
        {
          Icache.size_bytes = 1024;
          line_bytes = 16;
          context_switches;
          assoc = 1;
        };
      miss_ratio = 0.0;
      fetch_cost = 480;
    }
  in
  let m =
    {
      Harness.Measure.program = "p\"q";
      level = Opt.Driver.Jumps;
      machine = Ir.Machine.risc;
      static_instrs = 12;
      static_ujumps = 0;
      static_nops = 1;
      code_bytes = 48;
      dyn_instrs = 40;
      dyn_ujumps = 0;
      dyn_nops = 2;
      dyn_transfers = 8;
      output = "";
      output_ok = true;
      timed_out = false;
      caches = [ cache true; cache false ];
    }
  in
  Alcotest.(check string) "row bytes"
    ({|{"program":"p\"q","level":"JUMPS","machine":"risc","static_instrs":12,|}
    ^ {|"static_ujumps":0,"static_nops":1,"code_bytes":48,"dyn_instrs":40,|}
    ^ {|"dyn_ujumps":0,"dyn_nops":2,"dyn_transfers":8,|}
    ^ {|"instrs_between_branches":5.000,"output_ok":true,"timed_out":false,|}
    ^ {|"caches":[{"config":"1Kb/direct/ctx-on","size_kb":1,"assoc":1,|}
    ^ {|"context_switches":true,"miss_ratio":0.000000,"fetch_cost":480},|}
    ^ {|{"config":"1Kb/direct/ctx-off","size_kb":1,"assoc":1,|}
    ^ {|"context_switches":false,"miss_ratio":0.000000,"fetch_cost":480}]}|})
    (Json.to_string (Harness.Measure.to_json m))

let astring_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Strict-parser edges: truncation at every prefix, trailing garbage,
   duplicate keys, and deep nesting all land in defined behavior. *)
let test_json_strict_edges () =
  let doc = "{\"a\":[1,2.5,\"x\\n\"],\"b\":{\"c\":null,\"d\":false}}" in
  (* Every proper prefix of a valid document must be an [Error] (no
     prefix of this one happens to be a complete document). *)
  for i = 0 to String.length doc - 1 do
    match Json.parse (String.sub doc 0 i) with
    | Ok _ -> Alcotest.failf "accepted truncation at %d: %s" i (String.sub doc 0 i)
    | Error _ -> ()
  done;
  (match Json.parse doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected the full document: %s" e);
  (* One document per parse: anything after the value is an error, and
     the offset in the message points past the value. *)
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted trailing garbage: %s" bad
      | Error e ->
        Alcotest.(check bool)
          ("trailing diagnosis for " ^ bad)
          true
          (astring_contains e "trailing"))
    [ "{} {}"; "null null"; "[1] 2"; "42 trailing"; "\"s\"x" ];
  (* Duplicate object keys: the parser keeps the document; [member]
     resolves to the first binding. *)
  (match Json.parse "{\"k\":1,\"k\":2,\"other\":3}" with
  | Ok v ->
    Alcotest.(check (option int))
      "first binding wins" (Some 1)
      (Option.bind (Json.member "k" v) Json.get_int)
  | Error e -> Alcotest.failf "rejected duplicate keys: %s" e);
  (* Deep nesting parses and round-trips up to [max_depth]; past it the
     parser answers [Error] instead of recursing toward the stack
     limit. *)
  let depth = 2000 in
  assert (depth <= Json.max_depth);
  let deep =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "7"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  (match Json.parse deep with
  | Ok v ->
    let rec unwrap n v =
      match v with
      | Json.Arr [ inner ] -> unwrap (n + 1) inner
      | Json.Int 7 -> n
      | _ -> Alcotest.fail "deep value mangled"
    in
    Alcotest.(check int) "depth preserved" depth (unwrap 0 v);
    Alcotest.(check string) "deep round-trip" deep (Json.to_string v)
  | Error e -> Alcotest.failf "rejected depth-%d nesting: %s" depth e);
  (* An unbalanced deep document is an error, not a crash. *)
  (match Json.parse (String.concat "" (List.init depth (fun _ -> "["))) with
  | Ok _ -> Alcotest.fail "accepted unbalanced nesting"
  | Error _ -> ());
  (* One level past the cap: a balanced document is rejected with the
     depth diagnostic, not parsed. *)
  let over = Json.max_depth + 1 in
  let capped =
    String.make over '[' ^ "7" ^ String.make over ']'
  in
  (match Json.parse capped with
  | Ok _ -> Alcotest.failf "accepted depth-%d nesting past the cap" over
  | Error e ->
    Alcotest.(check bool)
      "depth diagnosis" true
      (astring_contains e "nesting"));
  (* The attack shape from a pipe: millions of '[' in one document
     (well under the 16MB frame cap) must come back as [Error], never
     [Stack_overflow]. *)
  match Json.parse (String.make 2_000_000 '[') with
  | Ok _ -> Alcotest.fail "accepted a 2M-deep document"
  | Error _ -> ()

(* Profiler shards fold like the registry: merged aggregates equal the
   single-table run, calls/runs/changed/wall/alloc summing. *)
let test_profiler_merge () =
  let cse p ~ran ~changed wall_ms alloc =
    Profiler.record_pass p ~func:"main" ~pass:"cse" ~ran ~changed ~wall_ms
      ~alloc
  in
  let replicate p =
    Profiler.record_pass p ~func:"wc" ~pass:"replicate" ~ran:true
      ~changed:true ~wall_ms:5.0 ~alloc:100.0
  in
  let whole = Profiler.create () in
  cse whole ~ran:true ~changed:true 1.0 10.0;
  cse whole ~ran:false ~changed:false 2.0 5.0;
  replicate whole;
  let a = Profiler.create () and b = Profiler.create () in
  cse a ~ran:true ~changed:true 1.0 10.0;
  cse b ~ran:false ~changed:false 2.0 5.0;
  replicate b;
  let merged = Profiler.create () in
  Profiler.merge ~into:merged a;
  Profiler.merge ~into:merged b;
  Alcotest.(check string) "merged = sequential"
    (Json.to_string (Profiler.to_json whole))
    (Json.to_string (Profiler.to_json merged));
  (* The text a worker ships back reads as the same profile. *)
  Alcotest.(check string) "of_json inverts to_json"
    (Json.to_string (Profiler.to_json merged))
    (match Json.parse (Json.to_string (Profiler.to_json merged)) with
    | Ok doc -> Json.to_string (Profiler.to_json (Profiler.of_json doc))
    | Error e -> Alcotest.fail e);
  (match
     List.find (fun r -> r.Profiler.p_pass = "cse") (Profiler.pass_rows merged)
   with
  | { Profiler.p_calls = 2; p_runs = 1; p_changed = 1; _ } -> ()
  | _ -> Alcotest.fail "cse: 2 calls = 1 run + 1 replay, 1 changed");
  (* Hottest-first ordering and by-pass aggregation. *)
  (match Profiler.pass_rows merged with
  | { Profiler.p_func = "wc"; p_pass = "replicate"; p_calls = 1; _ } :: _ -> ()
  | _ -> Alcotest.fail "hottest (function x pass) row first");
  (match Profiler.by_pass merged with
  | first :: _ ->
    Alcotest.(check string) "hottest pass" "replicate" first.Profiler.p_pass;
    Alcotest.(check string) "aggregate has no func" "" first.Profiler.p_func
  | [] -> Alcotest.fail "no by-pass rows");
  (* Null profiler records nothing. *)
  Profiler.record_pass Profiler.null ~func:"f" ~pass:"p" ~ran:true
    ~changed:false ~wall_ms:1.0 ~alloc:1.0;
  Alcotest.(check int) "null stays empty" 0
    (List.length (Profiler.pass_rows Profiler.null))

(* Runs and replays: the fixpoint's memo answers some presentations
   without running the pass.  The replication hook sees exactly the real
   runs, so its count pins [runs]; [calls - runs] are the replays. *)
let test_profiler_runs () =
  let profiler = Profiler.create () in
  let runs = ref 0 and changes = ref 0 in
  let replicate ?(allow_irreducible = false) f =
    let f', c = Replication.Loops_rep.run f in
    if not allow_irreducible then begin
      incr runs;
      if c then incr changes
    end;
    (f', c)
  in
  let opts = Opt.Driver.options ~level:Opt.Driver.Loops () in
  let src = (Option.get (Programs.Suite.find "wc")).source in
  List.iter
    (fun f ->
      ignore
        (Opt.Driver.optimize_func_with ~profiler ~replicate opts
           Ir.Machine.risc f))
    (Frontend.Codegen.compile_source src).Flow.Prog.funcs;
  let rows = Profiler.by_pass profiler in
  List.iter
    (fun (r : Profiler.pass_row) ->
      let replays = r.p_calls - r.p_runs in
      Alcotest.(check bool) (r.p_pass ^ ": replays >= 0") true (replays >= 0);
      Alcotest.(check int) (r.p_pass ^ ": runs + replays = calls") r.p_calls
        (r.p_runs + replays);
      Alcotest.(check bool) (r.p_pass ^ ": changed <= runs") true
        (r.p_changed <= r.p_runs))
    rows;
  let row name = List.find (fun r -> r.Profiler.p_pass = name) rows in
  Alcotest.(check int) "replicate runs" !runs (row "replicate").p_runs;
  Alcotest.(check int) "replicate changed" !changes (row "replicate").p_changed;
  Alcotest.(check bool) "some presentation was replayed" true
    (List.exists (fun r -> r.Profiler.p_runs < r.p_calls) rows)

let tests =
  ( "telemetry",
    [
      Alcotest.test_case "pass deltas reconcile" `Quick test_deltas_reconcile;
      Alcotest.test_case "rollback reasons" `Quick test_rollback_reasons;
      Alcotest.test_case "null sink" `Quick test_null_sink;
      Alcotest.test_case "null sink allocates nothing" `Quick test_null_alloc;
      Alcotest.test_case "memory sink" `Quick test_memory_sink;
      Alcotest.test_case "measure telemetry" `Quick test_measure_telemetry;
      Alcotest.test_case "explain covers all jumps" `Quick
        test_explain_covers_all_jumps;
      Alcotest.test_case "jsonl shape" `Quick test_jsonl_shape;
      Alcotest.test_case "diag json bytes" `Quick test_diag_json_bytes;
      Alcotest.test_case "trace json" `Quick test_trace_json;
      Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "measure row bytes" `Quick test_measure_row_bytes;
      Alcotest.test_case "json strict edges" `Quick test_json_strict_edges;
      Alcotest.test_case "profiler merge" `Quick test_profiler_merge;
      Alcotest.test_case "profiler runs and replays" `Quick test_profiler_runs;
    ] )
