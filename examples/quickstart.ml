(* Quickstart: compile a C-subset program at each optimization level, run
   it on the simulated machines, and watch the unconditional jumps vanish
   under code replication.

     dune exec examples/quickstart.exe                                    *)

let source =
  {|
int a[50];

int main() {
  int i, j, t;
  for (i = 0; i < 50; i++) a[i] = (i * 17 + 3) % 50;
  for (i = 0; i < 49; i++)
    for (j = 0; j < 49 - i; j++)
      if (a[j] > a[j + 1]) { t = a[j]; a[j] = a[j + 1]; a[j + 1] = t; }
  for (i = 0; i < 50; i = i + 10) { putchar('a' + a[i] % 26); }
  putchar('\n');
  return 0;
}
|}

let () =
  print_endline "Compiling a bubble sort at SIMPLE, LOOPS and JUMPS...\n";
  List.iter
    (fun machine ->
      Printf.printf "%s\n" machine.Ir.Machine.name;
      List.iter
        (fun level ->
          let opts = { Opt.Driver.default_options with level } in
          let prog = Opt.Driver.compile opts machine source in
          let asm = Sim.Asm.assemble machine prog in
          let res = Sim.Engine.run asm prog in
          Printf.printf
            "  %-6s  static %4d instrs (%2d jumps)   dynamic %7d instrs (%5d \
             jumps)   output %S\n"
            (Opt.Driver.level_name level)
            (Sim.Asm.static_instrs asm)
            (Sim.Asm.static_ujumps asm)
            res.counts.total
            (Sim.Interp.uncond_jumps res.counts)
            res.output)
        [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ];
      print_newline ())
    [ Ir.Machine.cisc; Ir.Machine.risc ];
  print_endline
    "JUMPS replicates code in place of every unconditional jump: the static\n\
     size grows while the executed instruction count (and every executed\n\
     jump) drops — the paper's headline result."
