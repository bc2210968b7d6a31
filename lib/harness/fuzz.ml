module Diag = Telemetry.Diag

type kind = Mismatch | Fault | Timeout | Quarantine | Compile_error

let kind_name = function
  | Mismatch -> "mismatch"
  | Fault -> "fault"
  | Timeout -> "timeout"
  | Quarantine -> "quarantine"
  | Compile_error -> "compile-error"

type failure = { kind : kind; config : string; detail : string }

let levels = [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ]
let machines = [ Ir.Machine.cisc; Ir.Machine.risc ]

let configs =
  List.concat_map (fun m -> List.map (fun l -> (l, m)) levels) machines

let config_name level machine =
  Printf.sprintf "%s/%s" (Opt.Driver.level_name level) machine.Ir.Machine.short

type outcome = Ran of string * int | Failed of kind * string

let run_one ~max_steps ~verify ~inject_fault src level machine =
  let diags = ref [] in
  let opts =
    {
      (Opt.Driver.options ~level ()) with
      verify_passes = verify;
      inject_fault;
    }
  in
  match Opt.Driver.compile ~diags opts machine src with
  | exception Diag.Error d -> Failed (Compile_error, Diag.to_string d)
  | exception exn -> Failed (Compile_error, Printexc.to_string exn)
  | prog ->
    if Diag.has_errors !diags then
      Failed
        ( Quarantine,
          String.concat "; "
            (List.filter_map
               (fun d ->
                 if d.Diag.severity = Diag.Err then Some (Diag.to_string d)
                 else None)
               (List.rev !diags)) )
    else (
      match Sim.Asm.assemble machine prog with
      | exception exn -> Failed (Compile_error, Printexc.to_string exn)
      | asm -> (
        match Sim.Engine.run ~max_steps ~input:"" asm prog with
        | exception Sim.Interp.Runtime_error msg -> Failed (Fault, msg)
        | res ->
          if res.timed_out then
            Failed
              (Timeout, Printf.sprintf "no exit within %d steps" max_steps)
          else Ran (res.output, res.exit_code)))

(* SIMPLE/cisc is the oracle: the least optimization on the reference
   machine.  Every other configuration must match it byte for byte. *)
let ref_level = Opt.Driver.Simple
let ref_machine = Ir.Machine.cisc

let check ?(max_steps = 3_000_000) ?(verify = false) ?inject_fault src =
  match run_one ~max_steps ~verify ~inject_fault src ref_level ref_machine with
  | Failed (kind, detail) ->
    Some { kind; config = config_name ref_level ref_machine; detail }
  | Ran (out, code) ->
    List.fold_left
      (fun acc (level, machine) ->
        match acc with
        | Some _ -> acc
        | None ->
          if
            level = ref_level
            && String.equal machine.Ir.Machine.short
                 ref_machine.Ir.Machine.short
          then None
          else (
            match run_one ~max_steps ~verify ~inject_fault src level machine with
            | Failed (kind, detail) ->
              Some { kind; config = config_name level machine; detail }
            | Ran (out', code') ->
              if String.equal out out' && code = code' then None
              else
                Some
                  {
                    kind = Mismatch;
                    config = config_name level machine;
                    detail =
                      Printf.sprintf "output %S exit %d; reference %S exit %d"
                        out' code' out code;
                  }))
      None configs

let reduce ?(max_attempts = 500) ~check p f =
  let attempts = ref 0 in
  let rec go p f =
    (* First shrink candidate that still fails the same way wins; restart
       from it.  Stops at a local minimum or when the budget runs out. *)
    let rec try_seq seq =
      if !attempts >= max_attempts then None
      else
        match seq () with
        | Seq.Nil -> None
        | Seq.Cons (cand, rest) -> (
          incr attempts;
          match check (Gen.to_c cand) with
          | Some f' when f'.kind = f.kind -> Some (cand, f')
          | _ -> try_seq rest)
    in
    match try_seq (Gen.shrink p) with
    | Some (p', f') -> go p' f'
    | None -> (p, f)
  in
  go p f

type stats = {
  seeds_run : int;
  failures : (int * failure * string) list;
  aborted : (int * string) list;
  pool : Pool.stats;
}

(* The reproducer's header comment must not terminate itself early. *)
let sanitize_comment s =
  let b = Buffer.create (String.length s) in
  String.iteri
    (fun i c ->
      if c = '/' && i > 0 && s.[i - 1] = '*' then Buffer.add_string b " /"
      else Buffer.add_char b c)
    s;
  Buffer.contents b

(* --- the [fuzz] op: one seed, generated, checked and reduced --- *)

module Json = Telemetry.Json

let failure_json f =
  Json.Obj
    [
      ("kind", Json.Str (kind_name f.kind));
      ("config", Json.Str f.config);
      ("detail", Json.Str f.detail);
    ]

let failure_of_json j =
  let str n = Option.bind (Json.member n j) Json.get_string in
  let kind =
    List.find_opt
      (fun k -> Some (kind_name k) = str "kind")
      [ Mismatch; Fault; Timeout; Quarantine; Compile_error ]
  in
  match (kind, str "config", str "detail") with
  | Some kind, Some config, Some detail -> Some { kind; config; detail }
  | _ -> None

let request ~max_steps ~verify ~inject_fault seed =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.Str "fuzz");
         ("seed", Json.Int seed);
         ("max_steps", Json.Int max_steps);
         ("verify", Json.Bool verify);
         ( "inject_fault",
           match inject_fault with Some p -> Json.Str p | None -> Json.Null );
       ])

(* The reply carries the original failure (what [on_seed] reports), the
   reduced one and the reproducer's full text; a clean seed is [{}]. *)
let handle req =
  let j =
    match Json.parse req with Ok j -> j | Error e -> failwith ("fuzz request: " ^ e)
  in
  let int n = Option.bind (Json.member n j) Json.get_int in
  let seed, max_steps =
    match (int "seed", int "max_steps") with
    | Some s, Some m -> (s, m)
    | _ -> failwith "fuzz request is missing seed or max_steps"
  in
  let verify = Option.bind (Json.member "verify" j) Json.get_bool = Some true in
  let inject_fault = Option.bind (Json.member "inject_fault" j) Json.get_string in
  let check_src src = check ~max_steps ~verify ?inject_fault src in
  let p = Gen.generate (Random.State.make [| seed |]) in
  Json.to_string
    (match check_src (Gen.to_c p) with
    | None -> Json.Obj []
    | Some f ->
      let p', f' = reduce ~check:check_src p f in
      Json.Obj
        [
          ("failure", failure_json f);
          ("reduced", failure_json f');
          ( "reproducer",
            Json.Str
              (Printf.sprintf
                 "/* jumprepc fuzz reproducer: seed %d\n   %s at %s: %s */\n%s"
                 seed (kind_name f'.kind) f'.config
                 (sanitize_comment f'.detail)
                 (Gen.to_c p')) );
        ])

let campaign ?(max_steps = 3_000_000) ?(verify = false) ?inject_fault
    ?(out_dir = "fuzz-failures") ?(start = 0) ?(on_seed = fun _ _ -> ())
    ?(workers = 0) ?worker_argv ?chaos ?seed_list ~seeds () =
  (* [seed_list] (store-resume: only the uncached delta) overrides the
     contiguous [start .. start + seeds - 1] range. *)
  let seed_ids =
    match seed_list with
    | Some l -> l
    | None -> List.init seeds (fun i -> start + i)
  in
  (* Generation, checking and reduction are pure in the seed, so seeds
     run anywhere; reproducer files, the failure list and [on_seed] are
     parent-side in seed order, making the campaign's observable output
     independent of [workers].  A seed whose task crashes or times out
     (only possible under chaos — the check itself never raises) lands
     in [aborted], and the sibling seeds' results are untouched. *)
  let seed_arr = Array.of_list seed_ids in
  let failures = ref [] in
  let aborted = ref [] in
  let attempts_s n = if n = 1 then "" else "s" in
  (* Streamed: each seed's reproducer is written and reported as soon as
     it and every earlier seed are done. *)
  let on_done i outcome =
    let seed = seed_arr.(i) in
    match outcome with
    | Pool.Done reply -> (
      let j = match Json.parse reply with Ok j -> j | Error _ -> Json.Null in
      let get n = Option.bind (Json.member n j) failure_of_json in
      match (get "failure", get "reduced", Json.member "reproducer" j) with
      | Some f, Some f', Some (Json.Str text) ->
        if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
        let path = Filename.concat out_dir (Printf.sprintf "seed-%d.c" seed) in
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        failures := (seed, f', path) :: !failures;
        on_seed seed (Some f)
      | _ -> on_seed seed None)
    | Pool.Crashed { exn; attempts; _ } ->
      aborted :=
        ( seed,
          Printf.sprintf "crashed after %d attempt%s: %s" attempts
            (attempts_s attempts) (Printexc.to_string exn) )
        :: !aborted
    | Pool.Timed_out { elapsed; attempts } ->
      aborted :=
        ( seed,
          Printf.sprintf "timed out after %d attempt%s (%.2fs)" attempts
            (attempts_s attempts) elapsed )
        :: !aborted
  in
  let _, pool =
    Pool.run ~workers ?argv:worker_argv ?chaos
      ~label:(fun i -> Printf.sprintf "seed-%d" seed_arr.(i))
      ~on_done
      ~handler:(fun _budget req -> handle req)
      (List.map (request ~max_steps ~verify ~inject_fault) seed_ids)
  in
  {
    seeds_run = List.length seed_ids;
    failures = List.rev !failures;
    aborted = List.rev !aborted;
    pool;
  }
