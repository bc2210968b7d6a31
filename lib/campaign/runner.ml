module Json = Telemetry.Json
module Diag = Telemetry.Diag
module Log = Telemetry.Log
module Measure = Harness.Measure
module Pool = Harness.Pool

type row = {
  r_program : string;
  r_level : string;
  r_machine : string;
  r_row : string;
  r_output_ok : bool;
  r_timed_out : bool;
  r_counters : (string * int) list;
  r_cached : bool;
}

type summary = {
  total : int;
  hits : int;
  computed : int;
  corrupt : int;
  kills : int;
  respawns : int;
  failures : Measure.task_failure list;
  diags : Diag.t list;
  pool : Pool.stats;
}

(* --- store entries --------------------------------------------------- *)

let counters_json counters =
  Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) counters)

let measure_entry ~key ~engine (b : Programs.Suite.benchmark) level
    (machine : Ir.Machine.t) (m : Measure.t) counters =
  Json.Obj
    [
      ("kind", Json.Str "measure/1");
      ("key", Json.Str key);
      ("program", Json.Str b.name);
      ("level", Json.Str (Opt.Driver.level_name level));
      ("machine", Json.Str machine.Ir.Machine.short);
      ("engine", Json.Str (Sim.Engine.kind_name engine));
      ("output_ok", Json.Bool m.output_ok);
      ("timed_out", Json.Bool m.timed_out);
      (* The rendered BENCH row, replayed verbatim on resume: rendering
         exactly once is what makes resumed output byte-identical. *)
      ("row", Json.Str (Measure.to_json m));
      ("counters", counters_json counters);
    ]

let counters_of_json = function
  | Json.Obj fields ->
    Some
      (List.filter_map
         (fun (n, v) -> match v with Json.Int i -> Some (n, i) | _ -> None)
         fields)
  | _ -> None

let row_of_entry ~cached j =
  let str name = Option.bind (Json.member name j) Json.get_string in
  let boolean name = Option.bind (Json.member name j) Json.get_bool in
  match
    ( str "program",
      str "level",
      str "machine",
      str "row",
      boolean "output_ok",
      boolean "timed_out",
      Option.bind (Json.member "counters" j) counters_of_json )
  with
  | ( Some r_program,
      Some r_level,
      Some r_machine,
      Some r_row,
      Some r_output_ok,
      Some r_timed_out,
      Some r_counters ) ->
    Ok
      {
        r_program;
        r_level;
        r_machine;
        r_row;
        r_output_ok;
        r_timed_out;
        r_counters;
        r_cached = cached;
      }
  | _ -> Error "entry is missing measure fields"

(* --- the worker side ------------------------------------------------- *)

let error_reply msg =
  Json.to_string (Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ])

let measure_one store ~key ~engine b level machine =
  Store.lease store key;
  let wlog = Log.make Log.Memory in
  let m = Measure.measure_raw ~log:wlog ~engine b level machine in
  let counters = Telemetry.Metrics.counters (Log.metrics wlog) in
  let entry = measure_entry ~key ~engine b level machine m counters in
  Store.commit store ~key entry;
  (m, counters, entry)

let handle_measure store j =
  let str name = Option.bind (Json.member name j) Json.get_string in
  match (str "bench", str "level", str "machine", str "engine", str "key") with
  | Some bench, Some level, Some machine, Some engine, Some key -> (
    match
      ( Programs.Suite.find bench,
        Opt.Driver.level_of_string level,
        (match machine with
        | "risc" -> Some Ir.Machine.risc
        | "cisc" -> Some Ir.Machine.cisc
        | _ -> None),
        Sim.Engine.kind_of_string engine )
    with
    | Some b, Some level, Some mach, Some engine -> (
      match measure_one store ~key ~engine b level mach with
      | exception e -> error_reply (Printexc.to_string e)
      | _, _, entry -> (
        match entry with
        | Json.Obj fields ->
          Json.to_string (Json.Obj (("ok", Json.Bool true) :: fields))
        | _ -> assert false))
    | None, _, _, _ -> error_reply (Printf.sprintf "unknown benchmark %S" bench)
    | _, None, _, _ -> error_reply (Printf.sprintf "unknown level %S" level)
    | _, _, None, _ -> error_reply (Printf.sprintf "unknown machine %S" machine)
    | _, _, _, None -> error_reply (Printf.sprintf "unknown engine %S" engine))
  | _ -> error_reply "measure frame is missing fields"

let worker_handler store payload =
  match Json.parse payload with
  | Error e -> Some (error_reply ("unparsable request: " ^ e))
  | Ok j -> (
    match Option.bind (Json.member "op" j) Json.get_string with
    | Some "quit" -> None
    | Some "measure" -> Some (handle_measure store j)
    | Some op -> Some (error_reply (Printf.sprintf "unknown op %S" op))
    | None -> Some (error_reply "request has no op"))

(* --- the parent side ------------------------------------------------- *)

let row_of_measure ~cached (b : Programs.Suite.benchmark) level
    (machine : Ir.Machine.t) (m : Measure.t) counters =
  ignore b;
  {
    r_program = m.Measure.program;
    r_level = Opt.Driver.level_name level;
    r_machine = machine.Ir.Machine.short;
    r_row = Measure.to_json m;
    r_output_ok = m.Measure.output_ok;
    r_timed_out = m.Measure.timed_out;
    r_counters = counters;
    r_cached = cached;
  }

let failure_of_outcome (b : Programs.Suite.benchmark) level
    (machine : Ir.Machine.t) = function
  | Pool.Done _ -> None
  | Pool.Crashed { exn; backtrace; attempts } ->
    let detail =
      match String.trim backtrace with
      | "" -> Printexc.to_string exn
      | bt -> Printexc.to_string exn ^ " | " ^ bt
    in
    Some
      {
        Measure.f_program = b.name;
        f_level = level;
        f_machine = machine.Ir.Machine.short;
        f_kind = "crashed";
        f_detail = detail;
        f_attempts = attempts;
        f_elapsed = 0.;
      }
  | Pool.Timed_out { elapsed; attempts } ->
    Some
      {
        Measure.f_program = b.name;
        f_level = level;
        f_machine = machine.Ir.Machine.short;
        f_kind = "timed-out";
        f_detail = Printf.sprintf "deadline expired after %.2fs" elapsed;
        f_attempts = attempts;
        f_elapsed = elapsed;
      }

let sweep ~store ~resume ?(workers = 0) ?worker_argv ?(jobs = 1) ?deadline
    ?(retries = 2) ?chaos ?(engine = Sim.Engine.Threaded) ?(log = Log.null)
    tasks =
  let keyed =
    List.map (fun ((b, level, m) as t) -> (t, Key.measure ~engine b level m)) tasks
  in
  let cached : (string, row) Hashtbl.t = Hashtbl.create 128 in
  let diags = ref [] in
  if resume then
    List.iter
      (fun (_, key) ->
        if not (Hashtbl.mem cached key) then
          match Store.find store key with
          | Store.Miss -> ()
          | Store.Corrupt d -> diags := d :: !diags
          | Store.Hit entry -> (
            match row_of_entry ~cached:true entry with
            | Ok row -> Hashtbl.replace cached key row
            | Error msg -> diags := Store.note_corrupt store key msg :: !diags))
      keyed;
  let to_run =
    List.filter (fun (_, key) -> not (Hashtbl.mem cached key)) keyed
  in
  let label ((b, level, m), _) =
    Printf.sprintf "%s/%s/%s" b.Programs.Suite.name
      (Opt.Driver.level_name level)
      m.Ir.Machine.short
  in
  let outcomes, pstats, kills, respawns =
    if to_run = [] then ([], Pool.no_stats, 0, 0)
    else if workers > 0 then begin
      (* Sharded: one supervising domain per worker process; the domain
         task leases a process, ships the request over the pipe, and the
         worker computes *and commits* before replying — a SIGKILL
         between those two loses at most the in-flight task. *)
      let argv =
        match worker_argv with
        | Some a -> a
        | None -> invalid_arg "Runner.sweep: workers > 0 needs worker_argv"
      in
      let sh = Shard.create ~workers ~argv in
      (* Chaos kills are drawn from the same pure (seed, task, attempt)
         schedule as the in-process pool; attempts are counted here
         because the pool does not expose them to the task body. *)
      let amu = Mutex.create () in
      let attempts : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let next_attempt i =
        Mutex.lock amu;
        let a = 1 + Option.value ~default:0 (Hashtbl.find_opt attempts i) in
        Hashtbl.replace attempts i a;
        Mutex.unlock amu;
        a
      in
      let indexed = List.mapi (fun i t -> (i, t)) to_run in
      let outcomes, pstats =
        Pool.supervise ~jobs:workers ?deadline ~retries
          ~label:(fun (_, t) -> label t)
          (fun budget (i, ((b, level, mach), key)) ->
            ignore b;
            let attempt = next_attempt i in
            let kill =
              match chaos with
              | None -> false
              | Some c -> Pool.chaos_fault c ~task:i ~attempt <> None
            in
            let req =
              Json.to_string
                (Json.Obj
                   [
                     ("op", Json.Str "measure");
                     ("bench", Json.Str b.Programs.Suite.name);
                     ("level", Json.Str (Opt.Driver.level_name level));
                     ("machine", Json.Str mach.Ir.Machine.short);
                     ("engine", Json.Str (Sim.Engine.kind_name engine));
                     ("key", Json.Str key);
                   ])
            in
            let reply = Shard.call sh ~budget ~kill req in
            match Json.parse reply with
            | Error e -> raise (Shard.Worker_failed ("unparsable reply: " ^ e))
            | Ok j -> (
              match Option.bind (Json.member "ok" j) Json.get_bool with
              | Some true -> (
                match row_of_entry ~cached:false j with
                | Ok row -> row
                | Error msg -> raise (Shard.Worker_failed msg))
              | _ ->
                let msg =
                  Option.value ~default:"worker error"
                    (Option.bind (Json.member "error" j) Json.get_string)
                in
                raise (Shard.Worker_failed msg)))
          indexed
      in
      let kills = Shard.kills sh and respawns = Shard.respawns sh in
      Shard.shutdown sh;
      (outcomes, pstats, kills, respawns)
    end
    else begin
      let outcomes, pstats =
        Pool.supervise ~jobs ?deadline ~retries ?chaos ~label
          (fun budget ((b, level, mach), key) ->
            Store.lease store key;
            let wlog = Log.make Log.Memory in
            let m =
              Measure.measure_raw ~log:wlog ~budget ~engine b level mach
            in
            let counters = Telemetry.Metrics.counters (Log.metrics wlog) in
            let entry = measure_entry ~key ~engine b level mach m counters in
            Store.commit store ~key entry;
            row_of_measure ~cached:false b level mach m counters)
          to_run
      in
      (outcomes, pstats, 0, 0)
    end
  in
  let computed : (string, row) Hashtbl.t = Hashtbl.create 128 in
  let failures = ref [] in
  List.iter2
    (fun ((b, level, mach), key) outcome ->
      match outcome with
      | Pool.Done row -> Hashtbl.replace computed key row
      | (Pool.Crashed _ | Pool.Timed_out _) as o ->
        Option.iter
          (fun f -> failures := f :: !failures)
          (failure_of_outcome b level mach o))
    to_run outcomes;
  (* Final rows in task order — failed tasks are simply absent, as in a
     cold sweep.  Counter replay: stored and fresh deltas sum in the
     caller's registry; counter addition commutes and the registry
     renders name-sorted, so the counters object matches a cold run. *)
  let rows =
    List.filter_map
      (fun (_, key) ->
        match Hashtbl.find_opt cached key with
        | Some row -> Some row
        | None -> Hashtbl.find_opt computed key)
      keyed
  in
  let metrics = Telemetry.Log.metrics log in
  List.iter
    (fun r ->
      List.iter (fun (n, v) -> Telemetry.Metrics.add metrics n v) r.r_counters)
    rows;
  let hits = List.length (List.filter (fun r -> r.r_cached) rows) in
  ( rows,
    {
      total = List.length keyed;
      hits;
      computed = List.length rows - hits;
      corrupt = List.length !diags;
      kills;
      respawns;
      failures = List.rev !failures;
      diags = List.rev !diags;
      pool = pstats;
    } )
