module Json = Telemetry.Json
module Diag = Telemetry.Diag
module Profiler = Telemetry.Profiler
module Measure = Harness.Measure
module Pool = Harness.Pool

type row = {
  r_program : string;
  r_level : string;
  r_machine : string;
  r_row : string;
  r_output_ok : bool;
  r_timed_out : bool;
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
  Json.Obj
    [
      ("program", Json.Str f.f_program);
      ("level", Json.Str (Opt.Driver.level_name f.f_level));
      ("machine", Json.Str f.f_machine);
      ("kind", Json.Str f.f_kind);
      ("detail", Json.Str f.f_detail);
      ("attempts", Json.Int f.f_attempts);
      ("elapsed", Json.Fixed (3, f.f_elapsed));
    ]

type summary = {
  total : int;
  hits : int;
  computed : int;
  corrupt : int;
  failures : failure list;
  diags : Diag.t list;
  pool : Pool.stats;
}

(* --- store-through: resolve before, lease and commit around ------------ *)

let resolve store ~key decode =
  match Store.find store key with
  | Store.Miss -> Error None
  | Store.Corrupt d -> Error (Some d)
  | Store.Hit entry -> (
    match decode entry with
    | Ok v -> Ok v
    | Error msg -> Error (Some (Store.note_corrupt key msg)))

let lease ?store ~key =
  match store with
  | Some st when key <> "" ->
    Store.lease st key;
    fun entry -> Store.commit st ~key (Json.Obj entry)
  | _ -> ignore

let answer ?store ~key compute =
  let commit = lease ?store ~key in
  let entry, extra = compute () in
  commit entry;
  Json.to_string (Json.Obj (entry @ extra))

(* Every keyed request is a JSON object naming its op and its key. *)
let request ~op ~key fields =
  Json.to_string
    (Json.Obj (("op", Json.Str op) :: ("key", Json.Str key) :: fields))

(* A required field of a request or an entry. *)
let field j name of_json =
  match Option.bind (Json.member name j) of_json with
  | Some v -> v
  | None -> failwith ("bad or missing field " ^ name)

let str j name = field j name Json.get_string

(* An entry decoder from a reader that raises on a missing field. *)
let decoder what read j =
  try Ok (read j)
  with Failure _ | Not_found -> Error ("entry is missing " ^ what ^ " fields")

(* --- the [measure] op ---------------------------------------------- *)

(* A measure entry, or a reply that carries one, as a row. *)
let row_of_entry =
  decoder "measure" (fun j ->
      let flag name = field j name Json.get_bool in
      {
        r_program = str j "program";
        r_level = str j "level";
        r_machine = str j "machine";
        r_row = str j "row";
        r_output_ok = flag "output_ok";
        r_timed_out = flag "timed_out";
        r_cached = false;
      })

(* Measure one task.  The entry is the rendered BENCH row and its
   verdicts; the reply adds, when asked, the task's profile.  Anything
   wrong raises: the supervisor counts it as a crashed attempt and
   retries. *)
let measure_reply ?store ?budget j =
  let named name of_string =
    field j name (fun v -> Option.bind (Json.get_string v) of_string)
  in
  let b = named "bench" Programs.Suite.find in
  let level = named "level" Opt.Driver.level_of_string in
  let mach =
    named "machine" (function
      | "risc" -> Some Ir.Machine.risc
      | "cisc" -> Some Ir.Machine.cisc
      | _ -> None)
  in
  let key = str j "key" in
  let profile = Option.bind (Json.member "profile" j) Json.get_bool = Some true in
  answer ?store ~key (fun () ->
      let wprof = if profile then Profiler.create () else Profiler.null in
      let m = Measure.measure_raw ~profiler:wprof ?budget b level mach in
      ( [
          ("kind", Json.Str "measure/1");
          ("key", Json.Str key);
          ("program", Json.Str b.name);
          ("level", Json.Str (Opt.Driver.level_name level));
          ("machine", Json.Str mach.Ir.Machine.short);
          ("output_ok", Json.Bool m.output_ok);
          ("timed_out", Json.Bool m.timed_out);
          (* The rendered BENCH row, replayed verbatim on resume:
             rendering exactly once is what makes resumed output
             byte-identical. *)
          ("row", Json.Str (Json.to_string (Measure.to_json m)));
        ],
        if profile then [ ("profile", Profiler.to_json wprof) ] else [] ))

(* --- the [fuzz] op -------------------------------------------------- *)

module Fuzz = Harness.Fuzz

let fuzz_failure_json (f : Fuzz.failure) =
  Json.Obj
    [
      ("kind", Json.Str (Fuzz.kind_name f.kind));
      ("config", Json.Str f.config);
      ("detail", Json.Str f.detail);
    ]

let fuzz_failure_of_json j =
  let kind =
    List.find
      (fun k -> Fuzz.kind_name k = str j "kind")
      [ Fuzz.Mismatch; Fault; Timeout; Quarantine; Compile_error ]
  in
  { Fuzz.kind; config = str j "config"; detail = str j "detail" }

(* A fuzz entry (the op's reply, verbatim) as the seed's verdict: the
   original and reduced failures and the reproducer text, or [None] for
   a clean seed. *)
let fuzz_of_entry =
  decoder "fuzz verdict" (fun j ->
      ignore (field j "seed" Json.get_int);
      if Json.member "failure" j = None then None
      else
        let failure name = fuzz_failure_of_json (field j name Option.some) in
        Some (failure "failure", failure "reduced", str j "reproducer"))

let fuzz_reply ?store j =
  let seed = field j "seed" Json.get_int in
  let max_steps = field j "max_steps" Json.get_int in
  let verify = Option.bind (Json.member "verify" j) Json.get_bool = Some true in
  let inject_fault = Option.bind (Json.member "inject_fault" j) Json.get_string in
  answer ?store ~key:(str j "key") (fun () ->
      ( ("kind", Json.Str "fuzz/2")
        :: ("seed", Json.Int seed)
        ::
        (match Fuzz.run_seed ~max_steps ~verify ?inject_fault seed with
        | None -> []
        | Some (f, f', text) ->
          [
            ("failure", fuzz_failure_json f);
            ("reduced", fuzz_failure_json f');
            ("reproducer", Json.Str text);
          ]),
        [] ))

(* --- one handler for the keyed ops ----------------------------------- *)

let handle ?store ?budget payload =
  match Json.parse payload with
  | Error e -> failwith ("unparsable request: " ^ e)
  | Ok j -> (
    match Option.bind (Json.member "op" j) Json.get_string with
    | Some "measure" -> measure_reply ?store ?budget j
    | Some "fuzz" -> fuzz_reply ?store j
    | Some op -> failwith (Printf.sprintf "unknown op %S" op)
    | None -> failwith "request has no op")

let worker_handler store payload = Some (handle ~store payload)

(* --- the campaign function ------------------------------------------- *)

let run ?store ?(resume = false) ?(workers = 0) ?worker_argv ?deadline ?retries
    ?chaos ?trace ?(label = Printf.sprintf "task-%d")
    ?(on_answer = fun _ _ -> ()) ?handler ~decode requests =
  let requests = Array.of_list requests in
  let n = Array.length requests in
  let diags = ref [] in
  (* Resolve: each keyed request once, through the op's decoder. *)
  let answers =
    Array.map
      (fun (key, _) ->
        match store with
        | Some st when resume && key <> "" -> (
          match resolve st ~key (decode ~cached:true) with
          | Ok v -> Some (Pool.Done v)
          | Error d ->
            Option.iter (fun d -> diags := d :: !diags) d;
            None)
        | _ -> None)
      requests
  in
  (* Report in task order: each answer as soon as it and every earlier
     one are in, cached ones included. *)
  let reported = ref 0 in
  let report () =
    while !reported < n && Option.is_some answers.(!reported) do
      on_answer !reported (Option.get answers.(!reported));
      incr reported
    done
  in
  report ();
  let to_run =
    Array.of_list
      (List.filter (fun i -> Option.is_none answers.(i)) (List.init n Fun.id))
  in
  (* Compute: whoever answers a request (this process, or a worker
     process started with the store) leases its key before computing and
     commits the entry before replying, so a SIGKILL loses at most the
     requests in flight.  Fresh replies go through the same decoder as
     cached entries. *)
  let settle j outcome =
    answers.(to_run.(j)) <-
      Some
        (match outcome with
        | Pool.Done reply -> (
          match Result.bind (Json.parse reply) (decode ~cached:false) with
          | Ok v -> Pool.Done v
          | Error msg ->
            Pool.Crashed
              { exn = Failure ("bad reply: " ^ msg); backtrace = ""; attempts = 1 })
        | Pool.Crashed { exn; backtrace; attempts } ->
          Pool.Crashed { exn; backtrace; attempts }
        | Pool.Timed_out { elapsed; attempts } ->
          Pool.Timed_out { elapsed; attempts });
    report ()
  in
  let handler =
    Option.value handler ~default:(fun budget req -> handle ?store ~budget req)
  in
  let _, pool =
    Pool.run ~workers ?argv:worker_argv ?deadline ?retries ?chaos ?trace
      ~label:(fun j -> label to_run.(j))
      ~on_done:settle ~handler
      (Array.to_list (Array.map (fun i -> snd requests.(i)) to_run))
  in
  (Array.to_list (Array.map Option.get answers), List.rev !diags, pool)

(* --- the measure instance: the sweep ---------------------------------- *)

let sweep ?store ?resume ?workers ?worker_argv ?deadline ?(retries = 2) ?chaos
    ?(profiler = Profiler.null) ?trace task_list =
  let tasks = Array.of_list task_list in
  let profile = Profiler.enabled profiler in
  (* Keys name store entries; a store-less sweep needs none (and skips
     the compiler fingerprint's git subprocess). *)
  let requests =
    List.map
      (fun ((b : Programs.Suite.benchmark), level, m) ->
        let key =
          if store = None then ""
          else Key.measure ~engine:Sim.Engine.Threaded b level m
        in
        ( key,
          request ~op:"measure" ~key
            [
              ("bench", Json.Str b.name);
              ("level", Json.Str (Opt.Driver.level_name level));
              ("machine", Json.Str m.Ir.Machine.short);
              ("profile", Json.Bool profile);
            ] ))
      task_list
  in
  let label i =
    let b, level, m = tasks.(i) in
    Printf.sprintf "%s/%s/%s" b.Programs.Suite.name
      (Opt.Driver.level_name level)
      m.Ir.Machine.short
  in
  let answers, diags, pool =
    run ?store ?resume ?workers ?worker_argv ?deadline ~retries ?chaos ?trace
      ~label
      ~decode:(fun ~cached j ->
        Result.map (fun row -> ({ row with r_cached = cached }, j)) (row_of_entry j))
      requests
  in
  (* Fold in task order: computed rows merge the task's profile; failed
     tasks are simply absent from the rows. *)
  let rows, failures =
    List.partition_map Fun.id
      (List.mapi
         (fun i a ->
           let failed f_kind f_detail f_attempts f_elapsed =
             let b, f_level, mach = tasks.(i) in
             Either.Right
               {
                 f_program = b.Programs.Suite.name;
                 f_level;
                 f_machine = mach.Ir.Machine.short;
                 f_kind;
                 f_detail;
                 f_attempts;
                 f_elapsed;
               }
           in
           match a with
           | Pool.Done (row, reply) ->
             Option.iter
               (fun p -> Profiler.merge ~into:profiler (Profiler.of_json p))
               (Json.member "profile" reply);
             Either.Left row
           | Pool.Crashed { exn; backtrace; attempts } ->
             let detail =
               match String.trim backtrace with
               | "" -> Printexc.to_string exn
               | bt -> Printexc.to_string exn ^ " | " ^ bt
             in
             failed "crashed" detail attempts 0.
           | Pool.Timed_out { elapsed; attempts } ->
             failed "timed-out"
               (Printf.sprintf "deadline expired after %.2fs" elapsed)
               attempts elapsed)
         answers)
  in
  let hits = List.length (List.filter (fun r -> r.r_cached) rows) in
  ( rows,
    {
      total = Array.length tasks;
      hits;
      computed = List.length rows - hits;
      corrupt = List.length diags;
      failures;
      diags;
      pool;
    } )

(* --- the fuzz instance ------------------------------------------------ *)

type fuzz_report = {
  fz_seeds : int;
  fz_cached : int;
  fz_failures : (int * Fuzz.failure * string) list;
  fz_aborted : (int * string) list;
  fz_diags : Diag.t list;
  fz_pool : Pool.stats;
}

let fuzz ?store ?resume ?(max_steps = 3_000_000) ?(verify = false)
    ?inject_fault ?(out_dir = "fuzz-failures") ?(start = 0)
    ?(on_seed = fun _ _ -> ()) ?workers ?worker_argv ?chaos ~seeds () =
  let requests =
    List.init seeds (fun i ->
        let seed = start + i in
        let key =
          if store = None then "" else Key.fuzz ~max_steps ~verify ~inject_fault seed
        in
        ( key,
          request ~op:"fuzz" ~key
            [
              ("seed", Json.Int seed);
              ("max_steps", Json.Int max_steps);
              ("verify", Json.Bool verify);
              ( "inject_fault",
                Option.fold ~none:Json.Null ~some:(fun p -> Json.Str p) inject_fault );
            ] ))
  in
  let cached = ref 0 and failures = ref [] and aborted = ref [] in
  let abort seed what attempts detail =
    aborted :=
      ( seed,
        Printf.sprintf "%s after %d attempt%s%s" what attempts
          (if attempts = 1 then "" else "s")
          detail )
      :: !aborted
  in
  (* A seed's verdict, cached or fresh, writes its reproducer and is
     reported the same way, in seed order; a seed with no verdict (its
     task crashed or timed out, only possible under chaos) is never
     committed, so a resume reruns it. *)
  let verdict seed = function
    | None -> on_seed seed None
    | Some (f, f', text) ->
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let path = Filename.concat out_dir (Printf.sprintf "seed-%d.c" seed) in
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      failures := (seed, f', path) :: !failures;
      on_seed seed (Some f)
  in
  let on_answer i a =
    let seed = start + i in
    match a with
    | Pool.Done (v, was_cached) ->
      if was_cached then incr cached;
      verdict seed v
    | Pool.Crashed { exn; attempts; _ } ->
      abort seed "crashed" attempts (": " ^ Printexc.to_string exn)
    | Pool.Timed_out { elapsed; attempts } ->
      abort seed "timed out" attempts (Printf.sprintf " (%.2fs)" elapsed)
  in
  let _, diags, pool =
    run ?store ?resume ?workers ?worker_argv ?chaos
      ~label:(fun i -> Printf.sprintf "seed-%d" (start + i))
      ~on_answer
      ~decode:(fun ~cached j -> Result.map (fun v -> (v, cached)) (fuzz_of_entry j))
      requests
  in
  {
    fz_seeds = seeds;
    fz_cached = !cached;
    fz_failures = List.rev !failures;
    fz_aborted = List.rev !aborted;
    fz_diags = diags;
    fz_pool = pool;
  }
