(* Shared test helpers: compile and run C-subset sources through the whole
   pipeline. *)

let levels = [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ]
let machines = [ Ir.Machine.cisc; Ir.Machine.risc ]

let compile ?(level = Opt.Driver.Simple) ?(machine = Ir.Machine.cisc) src =
  Opt.Driver.compile { Opt.Driver.default_options with level } machine src

(* Compile and execute; returns (output, exit_code). *)
let run ?level ?machine ?(input = "") ?max_steps src =
  let machine = Option.value ~default:Ir.Machine.cisc machine in
  let prog = compile ?level ~machine src in
  let asm = Sim.Asm.assemble machine prog in
  let res = Sim.Engine.run ?max_steps ~input asm prog in
  (res.output, res.exit_code)

(* Execute with full measurement: returns interpreter result and assembly. *)
let run_counts ?level ?machine ?(input = "") src =
  let machine = Option.value ~default:Ir.Machine.cisc machine in
  let prog = compile ?level ~machine src in
  let asm = Sim.Asm.assemble machine prog in
  let res = Sim.Engine.run ~input asm prog in
  (res, asm)

(* All six (level, machine) outputs must agree; returns the common output. *)
let run_all_levels ?(input = "") src =
  let results =
    List.concat_map
      (fun machine ->
        List.map
          (fun level ->
            let out, code = run ~level ~machine ~input src in
            (level, machine, out, code))
          levels)
      machines
  in
  match results with
  | [] -> assert false
  | (_, _, out0, code0) :: rest ->
    List.iter
      (fun (level, machine, out, code) ->
        Alcotest.(check string)
          (Printf.sprintf "%s/%s output" (Opt.Driver.level_name level)
             machine.Ir.Machine.short)
          out0 out;
        Alcotest.(check int)
          (Printf.sprintf "%s/%s exit" (Opt.Driver.level_name level)
             machine.Ir.Machine.short)
          code0 code)
      rest;
    (out0, code0)

let check_output ?input ~expected src =
  let out, _ = run_all_levels ?input src in
  Alcotest.(check string) "output" expected out

(* [f] with a label supply of its own that continues where [f]'s stands,
   so that two runs on it draw the same fresh labels. *)
let fork f =
  Flow.Func.make ~name:(Flow.Func.name f) ~blocks:(Flow.Func.blocks f)
    ~lsupply:
      (Ir.Label.Supply.create_from
         (Ir.Label.Supply.next_index (Flow.Func.lsupply f)))
    ~vsupply:(Flow.Func.vsupply f)

(* Equal graphs: the same successor and predecessor lists, in order. *)
let same_cfg a b =
  Flow.Cfg.num_blocks a = Flow.Cfg.num_blocks b
  && List.for_all
       (fun i ->
         Flow.Cfg.succs a i = Flow.Cfg.succs b i
         && Flow.Cfg.preds a i = Flow.Cfg.preds b i)
       (List.init (Flow.Cfg.num_blocks a) Fun.id)

(* Equal loop lists: the same headers and bodies, in the same order. *)
let same_loops (a : Flow.Loops.loop list) (b : Flow.Loops.loop list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Flow.Loops.loop) (y : Flow.Loops.loop) ->
         x.header = y.header && Flow.Loops.Int_set.equal x.body y.body)
       a b

(* The corpus and Gen seeds 0-39, by name and source. *)
let corpus_and_gen =
  List.map
    (fun (b : Programs.Suite.benchmark) -> (b.name, b.source))
    Programs.Suite.all
  @ List.init 40 (fun seed ->
        let gen = Harness.Gen.generate (Random.State.make [| seed |]) in
        (Printf.sprintf "gen%d" seed, Harness.Gen.to_c gen))

(* A sweep's counters, derived from its rows as [bench --json] does. *)
let sweep_counters rows =
  let results =
    List.map
      (fun (r : Campaign.Runner.row) ->
        Result.get_ok (Telemetry.Json.parse r.r_row))
      rows
  in
  match
    Report.doc_of_json
      (Telemetry.Json.Obj [ ("results", Telemetry.Json.Arr results) ])
  with
  | Ok doc -> Report.counters doc.rows
  | Error e -> failwith ("sweep rows do not read back: " ^ e)
