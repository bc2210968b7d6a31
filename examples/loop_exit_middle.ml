(* The paper's Table 1: a loop whose exit condition sits in the middle.
   Conventional loop optimization (LOOPS) cannot remove the bottom jump of
   such a loop; generalized replication (JUMPS) replaces it with a copy of
   the test sequence and a reversed branch, saving one unconditional jump
   per iteration.

     dune exec examples/loop_exit_middle.exe                              *)

let source =
  {|
int x[100];
int n = 40;

int main() {
  int i;
  i = 1;
  while (i <= n) {
    x[i - 1] = x[i];
    i = i + 1;
  }
  return 0;
}
|}

let () =
  let machine = Ir.Machine.cisc in
  let show level =
    let opts = { Opt.Driver.default_options with level } in
    let prog = Opt.Driver.compile opts machine source in
    let f = Option.get (Flow.Prog.find_func prog "main") in
    Format.printf "=== %s ===@.%a@.@." (Opt.Driver.level_name level)
      Flow.Func.pp f;
    let asm = Sim.Asm.assemble machine prog in
    let res = Sim.Engine.run asm prog in
    Printf.printf "executed: %d instructions, %d unconditional jumps\n\n"
      res.counts.total
      (Sim.Interp.uncond_jumps res.counts)
  in
  show Opt.Driver.Simple;
  show Opt.Driver.Jumps;
  print_endline
    "In the JUMPS version the loop's closing jump is gone: the replicated\n\
     condition test appears at the loop bottom with its branch reversed,\n\
     exactly as in the paper's Table 1 (label L000 there)."
