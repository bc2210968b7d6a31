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

type failure = {
  f_program : string;
  f_level : Opt.Driver.level;
  f_machine : string;
  f_kind : string;
  f_detail : string;
  f_attempts : int;
  f_elapsed : float;
}

let failure_to_json f =
  Printf.sprintf
    "{\"program\":%s,\"level\":%s,\"machine\":%s,\"kind\":%s,\"detail\":%s,\
     \"attempts\":%d,\"elapsed\":%.3f}"
    (Log.json_string f.f_program)
    (Log.json_string (Opt.Driver.level_name f.f_level))
    (Log.json_string f.f_machine)
    (Log.json_string f.f_kind)
    (Log.json_string f.f_detail)
    f.f_attempts f.f_elapsed

type summary = {
  total : int;
  hits : int;
  computed : int;
  corrupt : int;
  failures : failure list;
  diags : Diag.t list;
  pool : Pool.stats;
}

(* --- store entries --------------------------------------------------- *)

(* A store entry's fields. *)
let entry_fields ~key ~engine (b : Programs.Suite.benchmark) level
    (machine : Ir.Machine.t) (m : Measure.t) counters =
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
    ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) counters));
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

(* --- the [measure] op ---------------------------------------------- *)

let request ~engine ~key ~profile ((b : Programs.Suite.benchmark), level, mach)
    =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.Str "measure");
         ("bench", Json.Str b.name);
         ("level", Json.Str (Opt.Driver.level_name level));
         ("machine", Json.Str mach.Ir.Machine.short);
         ("engine", Json.Str (Sim.Engine.kind_name engine));
         ("key", Json.Str key);
         ("profile", Json.Bool profile);
       ])

(* Measure one task and reply with its store entry plus the private
   log's whole metrics registry (histograms included) and, when asked,
   its profile.  Anything wrong raises: the supervisor counts it as a
   crashed attempt and retries. *)
let measure_reply ?store ?budget j =
  let str name = Option.bind (Json.member name j) Json.get_string in
  let field name of_string =
    match Option.bind (str name) of_string with
    | Some v -> v
    | None -> failwith (Printf.sprintf "measure request: bad or missing %s" name)
  in
  let b = field "bench" Programs.Suite.find in
  let level = field "level" Opt.Driver.level_of_string in
  let mach =
    field "machine" (function
      | "risc" -> Some Ir.Machine.risc
      | "cisc" -> Some Ir.Machine.cisc
      | _ -> None)
  in
  let engine = field "engine" Sim.Engine.kind_of_string in
  let key = field "key" Option.some in
  let profile = Option.bind (Json.member "profile" j) Json.get_bool = Some true in
  Option.iter (fun st -> Store.lease st key) store;
  let wlog = Log.make Log.Memory in
  let wprof =
    if profile then Telemetry.Profiler.create () else Telemetry.Profiler.null
  in
  let m = Measure.measure_raw ~log:wlog ~profiler:wprof ?budget ~engine b level mach in
  let metrics = Log.metrics wlog in
  let fields =
    entry_fields ~key ~engine b level mach m (Telemetry.Metrics.counters metrics)
  in
  Option.iter (fun st -> Store.commit st ~key (Json.Obj fields)) store;
  let profile =
    if profile then [ ("profile", Telemetry.Profiler.to_json wprof) ] else []
  in
  Json.to_string
    (Json.Obj (fields @ (("metrics", Telemetry.Metrics.to_json metrics) :: profile)))

let handle ?store ?budget payload =
  match Json.parse payload with
  | Error e -> failwith ("unparsable request: " ^ e)
  | Ok j -> (
    match Option.bind (Json.member "op" j) Json.get_string with
    | Some "measure" -> measure_reply ?store ?budget j
    | Some op -> failwith (Printf.sprintf "unknown op %S" op)
    | None -> failwith "request has no op")

let worker_handler store payload = Some (handle ~store payload)

(* --- the sweep ------------------------------------------------------- *)

let sweep ?store ?(resume = false) ?(workers = 0) ?worker_argv ?deadline
    ?(retries = 2) ?chaos ?(engine = Sim.Engine.Threaded) ?(log = Log.null)
    ?(profiler = Telemetry.Profiler.null) ?trace tasks =
  let tasks = Array.of_list tasks in
  (* Keys name store entries; a store-less sweep needs none (and skips
     the compiler fingerprint's git subprocess). *)
  let keys =
    Array.map
      (fun (b, level, m) ->
        if store = None then "" else Key.measure ~engine b level m)
      tasks
  in
  let diags = ref [] in
  let cached =
    Array.map
      (fun key ->
        match store with
        | Some store when resume -> (
          match Store.find store key with
          | Store.Miss -> None
          | Store.Corrupt d ->
            diags := d :: !diags;
            None
          | Store.Hit entry -> (
            match row_of_entry ~cached:true entry with
            | Ok row -> Some row
            | Error msg ->
              diags := Store.note_corrupt store key msg :: !diags;
              None))
        | _ -> None)
      keys
  in
  let to_run =
    Array.of_list
      (List.filter
         (fun i -> Option.is_none cached.(i))
         (List.init (Array.length tasks) Fun.id))
  in
  let label j =
    let b, level, m = tasks.(to_run.(j)) in
    Printf.sprintf "%s/%s/%s" b.Programs.Suite.name
      (Opt.Driver.level_name level)
      m.Ir.Machine.short
  in
  (* Every computed task is one [measure] request, answered in-process
     or by a worker process; workers commit to the store themselves
     before replying, so a SIGKILL between the two loses at most the
     in-flight task. *)
  let profile = Telemetry.Profiler.enabled profiler in
  let outcomes, pool =
    Pool.run ~workers ?argv:worker_argv ?deadline ~retries ?chaos ?trace ~label
      ~handler:(fun budget req -> handle ?store ~budget req)
      (Array.to_list
         (Array.map
            (fun i -> request ~engine ~key:keys.(i) ~profile tasks.(i))
            to_run))
  in
  let computed = Array.make (Array.length tasks) None in
  List.iteri (fun j o -> computed.(to_run.(j)) <- Some o) outcomes;
  (* Fold in task order.  Cached rows replay their stored counter
     deltas; computed rows merge the task's whole registry and profile.
     Sums commute and the registry renders name-sorted, so the caller's
     counters equal a cold in-process sweep's; failed tasks are simply
     absent from the rows. *)
  let metrics = Log.metrics log in
  let failures = ref [] in
  let rows =
    List.filter_map
      (fun i ->
        let b, level, mach = tasks.(i) in
        let failed ~kind ~detail ~attempts ~elapsed =
          failures :=
            {
              f_program = b.Programs.Suite.name;
              f_level = level;
              f_machine = mach.Ir.Machine.short;
              f_kind = kind;
              f_detail = detail;
              f_attempts = attempts;
              f_elapsed = elapsed;
            }
            :: !failures;
          None
        in
        match (cached.(i), computed.(i)) with
        | Some row, _ ->
          List.iter (fun (n, v) -> Telemetry.Metrics.add metrics n v) row.r_counters;
          Some row
        | None, None -> None
        | None, Some (Pool.Done reply) -> (
          match
            Result.bind (Json.parse reply) (fun j ->
                Result.map (fun row -> (j, row)) (row_of_entry ~cached:false j))
          with
          | Ok (j, row) ->
            Option.iter
              (fun m ->
                Telemetry.Metrics.merge ~into:metrics (Telemetry.Metrics.of_json m))
              (Json.member "metrics" j);
            Option.iter
              (fun p ->
                Telemetry.Profiler.merge ~into:profiler (Telemetry.Profiler.of_json p))
              (Json.member "profile" j);
            Some row
          | Error msg ->
            failed ~kind:"crashed" ~detail:("bad reply: " ^ msg) ~attempts:1
              ~elapsed:0.)
        | None, Some (Pool.Crashed { exn; backtrace; attempts }) ->
          let detail =
            match String.trim backtrace with
            | "" -> Printexc.to_string exn
            | bt -> Printexc.to_string exn ^ " | " ^ bt
          in
          failed ~kind:"crashed" ~detail ~attempts ~elapsed:0.
        | None, Some (Pool.Timed_out { elapsed; attempts }) ->
          failed ~kind:"timed-out"
            ~detail:(Printf.sprintf "deadline expired after %.2fs" elapsed)
            ~attempts ~elapsed)
      (List.init (Array.length tasks) Fun.id)
  in
  let hits = List.length (List.filter (fun r -> r.r_cached) rows) in
  ( rows,
    {
      total = Array.length tasks;
      hits;
      computed = List.length rows - hits;
      corrupt = List.length !diags;
      failures = List.rev !failures;
      diags = List.rev !diags;
      pool;
    } )
