(* The MD5 of the replication decisions for every (program, level,
   machine) of the corpus and of Gen seeds 0-39: the stream of
   Replication_applied / Replication_rolled_back events the optimizer
   emits, followed by [Jumps.explain] of every final function.
   tools/ci.sh diffs this against test/replication_decisions.expected,
   so a change to how replication reaches its decisions (say, a
   rejection reason that changes while the output does not) shows even
   when the optimizer output digests stay the same.

   Usage: dune exec test/replication_decisions.exe > decisions.txt *)

let programs =
  List.map
    (fun (b : Programs.Suite.benchmark) -> (b.name, b.source))
    Programs.Suite.all
  @ List.init 40 (fun seed ->
        let gen = Harness.Gen.generate (Random.State.make [| seed |]) in
        (Printf.sprintf "gen%d" seed, Harness.Gen.to_c gen))

let decisions_text log (prog : Flow.Prog.t) =
  let buf = Buffer.create 4096 in
  List.iter
    (function
      | (Telemetry.Log.Replication_applied _ | Replication_rolled_back _) as ev
        ->
        Buffer.add_string buf
          (Telemetry.Json.to_string
             (Telemetry.Log.event_to_json ~seq:0 ~t_ms:0. ev));
        Buffer.add_char buf '\n'
      | _ -> ())
    (Telemetry.Log.events log);
  List.iter
    (fun f ->
      List.iter
        (fun ((bl, tl), d) ->
          Printf.bprintf buf "%s %s -> %s: %s\n" (Flow.Func.name f)
            (Ir.Label.to_string bl) (Ir.Label.to_string tl)
            (Replication.Jumps.decision_to_string d))
        (Replication.Jumps.explain f))
    prog.funcs;
  Buffer.contents buf

let () =
  List.iter
    (fun (name, source) ->
      List.iter
        (fun level ->
          List.iter
            (fun (machine : Ir.Machine.t) ->
              let log = Telemetry.Log.make Telemetry.Log.Memory in
              let prog =
                Opt.Driver.compile ~log
                  { Opt.Driver.default_options with level }
                  machine source
              in
              Printf.printf "%s %s %s %s\n%!" name
                (Opt.Driver.level_name level)
                machine.short
                (Digest.to_hex (Digest.string (decisions_text log prog))))
            [ Ir.Machine.risc; Ir.Machine.cisc ])
        [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ])
    programs
