(* Integration: the paper's 14 programs plus the 3 control-flow-heavy
   corpus additions (fannkuch, lexer, rdparse), each compiled at all
   three optimization levels for both machines, must reproduce the
   gcc-verified expected output — 102 end-to-end configurations. *)

let run_one (b : Programs.Suite.benchmark) level machine =
  let opts = { Opt.Driver.default_options with level } in
  let prog =
    Opt.Driver.optimize opts machine
      (Frontend.Codegen.compile_source b.source)
  in
  List.iter Flow.Check.assert_ok prog.Flow.Prog.funcs;
  let asm = Sim.Asm.assemble machine prog in
  let res = Sim.Engine.run ~input:b.input asm prog in
  Alcotest.(check string)
    (Printf.sprintf "%s %s/%s output" b.name (Opt.Driver.level_name level)
       machine.Ir.Machine.short)
    b.expected_output res.output;
  res

let test_program (b : Programs.Suite.benchmark) () =
  let results =
    List.concat_map
      (fun machine ->
        List.map (fun level -> (level, run_one b level machine)) Helpers.levels)
      Helpers.machines
  in
  (* JUMPS must essentially eliminate executed unconditional jumps
     (paper Table 4: 0.10-0.13% of instructions remain). *)
  List.iter
    (fun (level, (res : Sim.Interp.result)) ->
      if level = Opt.Driver.Jumps then begin
        let ratio =
          float_of_int (res.counts.jumps)
          /. float_of_int (max 1 res.counts.total)
        in
        Alcotest.(check bool)
          (b.name ^ ": almost no jumps under JUMPS")
          true (ratio < 0.005)
      end)
    results

let test_paper_class_coverage () =
  let classes =
    List.sort_uniq String.compare
      (List.map (fun (b : Programs.Suite.benchmark) -> b.clazz) Programs.Suite.all)
  in
  Alcotest.(check (list string)) "Table 3 classes"
    [ "Benchmark"; "User code"; "Utility" ]
    classes;
  Alcotest.(check int) "nineteen programs" 19 (List.length Programs.Suite.all)

let test_savings_direction () =
  (* Dynamic instruction counts must not increase under LOOPS or JUMPS
     relative to SIMPLE — the paper's headline direction — for the
     loop-heavy benchmarks. *)
  List.iter
    (fun name ->
      let b = Option.get (Programs.Suite.find name) in
      List.iter
        (fun machine ->
          let dyn level = (run_one b level machine).counts.total in
          let simple = dyn Opt.Driver.Simple in
          let loops = dyn Opt.Driver.Loops in
          let jumps = dyn Opt.Driver.Jumps in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s loops <= simple" name machine.Ir.Machine.short)
            true (loops <= simple);
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s jumps < simple" name machine.Ir.Machine.short)
            true (jumps < simple))
        Helpers.machines)
    [ "sieve"; "bubblesort"; "queens" ]

let tests =
  ( "programs",
    List.map
      (fun (b : Programs.Suite.benchmark) ->
        Alcotest.test_case b.name `Slow (test_program b))
      Programs.Suite.all
    @ [
        Alcotest.test_case "table 3 classes" `Quick test_paper_class_coverage;
        Alcotest.test_case "savings direction" `Slow test_savings_direction;
      ] )
