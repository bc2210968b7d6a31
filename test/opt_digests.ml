(* The MD5 of the optimizer's output for every (program, level, machine)
   of the corpus and of Gen seeds 0-39: 59 programs x 3 levels x 2
   machines.  tools/ci.sh diffs this against test/opt_digests.expected,
   so a compiler change that is meant to keep the output byte-identical
   can be checked to do so.

   Every no-convergence diagnostic and every error diagnostic (a
   quarantined pass) of these compiles goes to standard error, one line
   each, so tools/ci.sh can require that Figure 3's loop reaches its
   fixpoint on the generated functions too.

   With --verify-passes, only the 19 corpus programs are compiled (114
   compiles), each under the driver's expensive per-pass verification
   (def-before-use and the differential execution oracle).  Verifying
   must not change the output, so tools/ci.sh requires the pinned corpus
   lines and an empty standard error.

   Usage: dune exec test/opt_digests.exe [-- --verify-passes]
            > digests.txt 2> diags.txt *)

let verify_passes = Array.exists (String.equal "--verify-passes") Sys.argv

let programs =
  List.map
    (fun (b : Programs.Suite.benchmark) -> (b.name, b.source))
    Programs.Suite.all
  @
  if verify_passes then []
  else
    List.init 40 (fun seed ->
        let gen = Harness.Gen.generate (Random.State.make [| seed |]) in
        (Printf.sprintf "gen%d" seed, Harness.Gen.to_c gen))

let () =
  List.iter
    (fun (name, source) ->
      List.iter
        (fun level ->
          List.iter
            (fun (machine : Ir.Machine.t) ->
              let diags = ref [] in
              let prog =
                Opt.Driver.compile ~diags
                  { Opt.Driver.default_options with level; verify_passes }
                  machine source
              in
              List.iter
                (fun (d : Telemetry.Diag.t) ->
                  if
                    d.code = Telemetry.Diag.No_convergence
                    || d.severity = Telemetry.Diag.Err
                  then
                    Printf.eprintf "%s %s %s %s\n%!" name
                      (Opt.Driver.level_name level)
                      machine.short (Telemetry.Diag.to_string d))
                !diags;
              let text = Fmt.str "%a" Flow.Prog.pp prog in
              Printf.printf "%s %s %s %s\n%!" name
                (Opt.Driver.level_name level)
                machine.short
                (Digest.to_hex (Digest.string text)))
            [ Ir.Machine.risc; Ir.Machine.cisc ])
        [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ])
    programs
