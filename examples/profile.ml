(* EASE-style execution profile: run a bundled benchmark and report where
   the dynamic instructions go — per function and per instruction class —
   and how that distribution shifts under code replication.

     dune exec examples/profile.exe [program]                             *)

let classify (i : Ir.Rtl.instr) =
  match i with
  | Binop ((Mul | Div | Rem), _, _, _) -> "mul/div"
  | Binop ((Shl | Shr), _, _, _) -> "shift"
  | Binop _ | Unop _ -> "alu"
  | Move (Lreg _, (Reg _ | Imm _)) -> "move"
  | Move (Lreg _, Mem _) -> "load"
  | Move (Lmem _, _) -> "store"
  | Lea _ -> "lea"
  | Cmp _ -> "compare"
  | Branch _ -> "branch"
  | Jump _ | Ijump _ -> "jump"
  | Call _ | Ret -> "call/ret"
  | Enter _ | Leave -> "frame"
  | Nop -> "nop"

let profile (b : Programs.Suite.benchmark) level machine =
  let prog =
    Opt.Driver.compile
      { Opt.Driver.default_options with level }
      machine b.source
  in
  let asm = Sim.Asm.assemble machine prog in
  let by_addr = Sim.Asm.addr_index asm in
  let classes = Hashtbl.create 16 in
  let funcs = Hashtbl.create 16 in
  let bump tbl key =
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let on_fetch ~addr ~size:_ =
    let fname, i = Hashtbl.find by_addr addr in
    bump classes (classify i);
    bump funcs fname
  in
  let res = Sim.Engine.run ~input:b.input ~on_fetch asm prog in
  (res.counts.total, classes, funcs)

let print_table title total tbl =
  Printf.printf "  %s\n" title;
  Hashtbl.fold (fun k v acc -> (v, k) :: acc) tbl []
  |> List.sort compare |> List.rev
  |> List.iter (fun (v, k) ->
         Printf.printf "    %-10s %9d  (%5.1f%%)\n" k v
           (100.0 *. float_of_int v /. float_of_int total))

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "queens" in
  let b =
    match Programs.Suite.find name with
    | Some b -> b
    | None ->
      Printf.eprintf "unknown program %s (try: jumprepc list)\n" name;
      exit 1
  in
  let machine = Ir.Machine.risc in
  Printf.printf "Execution profile of %s on the %s\n\n" b.name
    machine.Ir.Machine.name;
  List.iter
    (fun level ->
      let total, classes, funcs = profile b level machine in
      Printf.printf "%s: %d instructions executed\n"
        (Opt.Driver.level_name level)
        total;
      print_table "by class:" total classes;
      print_table "by function:" total funcs;
      print_newline ())
    [ Opt.Driver.Simple; Opt.Driver.Jumps ];
  print_endline
    "Replication removes the 'jump' row almost entirely; on the RISC part\n\
     of the 'nop' row (unfillable delay slots of removed jumps) goes with\n\
     it."
