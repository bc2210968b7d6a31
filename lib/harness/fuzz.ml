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

(* The reproducer's header comment must not terminate itself early. *)
let sanitize_comment s =
  let b = Buffer.create (String.length s) in
  String.iteri
    (fun i c ->
      if c = '/' && i > 0 && s.[i - 1] = '*' then Buffer.add_string b " /"
      else Buffer.add_char b c)
    s;
  Buffer.contents b

let run_seed ?(max_steps = 3_000_000) ?(verify = false) ?inject_fault seed =
  let check_src src = check ~max_steps ~verify ?inject_fault src in
  let p = Gen.generate (Random.State.make [| seed |]) in
  match check_src (Gen.to_c p) with
  | None -> None
  | Some f ->
    let p', f' = reduce ~check:check_src p f in
    Some
      ( f,
        f',
        Printf.sprintf "/* jumprepc fuzz reproducer: seed %d\n   %s at %s: %s */\n%s"
          seed (kind_name f'.kind) f'.config
          (sanitize_comment f'.detail)
          (Gen.to_c p') )
