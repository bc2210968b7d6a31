(* Tests that pin the paper's qualitative claims (the "shape" of the
   results), machine-checked rather than eyeballed from bench output. *)

open Ir

let compile level machine src =
  Opt.Driver.compile { Opt.Driver.default_options with level } machine src

let table1_src =
  {|
int x[100];
int n = 10;

int main() {
  int i;
  i = 1;
  while (i <= n) {
    x[i - 1] = x[i];
    i = i + 1;
  }
  return x[0];
}
|}

let count_instrs p f =
  Array.fold_left
    (fun n (b : Flow.Func.block) -> n + List.length (List.filter p b.instrs))
    0 (Flow.Func.blocks f)

(* Table 1: the mid-exit loop keeps its jump under SIMPLE; JUMPS replaces
   it with a replicated, reversed test — one more conditional branch, no
   unconditional jumps, and one jump saved per iteration dynamically. *)
let test_table1_shape () =
  let is_jump = function Rtl.Jump _ -> true | _ -> false in
  let is_branch = function Rtl.Branch _ -> true | _ -> false in
  let f level =
    Option.get
      (Flow.Prog.find_func (compile level Machine.cisc table1_src) "main")
  in
  let simple = f Opt.Driver.Simple and jumps = f Opt.Driver.Jumps in
  Alcotest.(check bool) "SIMPLE keeps a jump" true
    (count_instrs is_jump simple >= 1);
  Alcotest.(check int) "JUMPS removes all jumps" 0 (count_instrs is_jump jumps);
  Alcotest.(check bool) "JUMPS adds a replicated branch" true
    (count_instrs is_branch jumps > count_instrs is_branch simple);
  (* Dynamic effect: at least one instruction saved per iteration. *)
  let dyn level =
    let prog = compile level Machine.cisc table1_src in
    let asm = Sim.Asm.assemble Machine.cisc prog in
    (Sim.Engine.run asm prog).counts
  in
  let ds = dyn Opt.Driver.Simple and dj = dyn Opt.Driver.Jumps in
  Alcotest.(check bool) "about one instruction saved per iteration" true
    (ds.total - dj.total >= 9);
  Alcotest.(check int) "no jumps executed" 0 dj.jumps

let table2_src =
  {|
int n = 3;

int compute(int i) {
  if (i > 5)
    i = i / n;
  else
    i = i * n;
  return i;
}

int main() { return compute(7) + compute(3); }
|}

(* Table 2: under JUMPS the two paths of the conditional return
   separately — the epilogue is replicated. *)
let test_table2_shape () =
  let is_ret = function Rtl.Ret -> true | _ -> false in
  let f level =
    Option.get
      (Flow.Prog.find_func (compile level Machine.cisc table2_src) "compute")
  in
  Alcotest.(check int) "one return under SIMPLE" 1
    (count_instrs is_ret (f Opt.Driver.Simple));
  Alcotest.(check bool) "separate returns under JUMPS" true
    (count_instrs is_ret (f Opt.Driver.Jumps) >= 2);
  (* Semantics: 7/3 + 3*3 = 2 + 9 = 11. *)
  let prog = compile Opt.Driver.Jumps Machine.cisc table2_src in
  let asm = Sim.Asm.assemble Machine.cisc prog in
  Alcotest.(check int) "result" 11 (Sim.Engine.run asm prog).exit_code

(* Table 4's headline: LOOPS removes a large share of executed
   unconditional jumps; JUMPS removes essentially all of them. *)
let test_jump_elimination_rates () =
  let totals level machine =
    List.fold_left
      (fun (uj, total) (b : Programs.Suite.benchmark) ->
        let m = Harness.Measure.run b level machine in
        (uj + m.dyn_ujumps, total + m.dyn_instrs))
      (0, 0) Programs.Suite.all
  in
  List.iter
    (fun machine ->
      let uj_s, _ = totals Opt.Driver.Simple machine in
      let uj_l, _ = totals Opt.Driver.Loops machine in
      let uj_j, tot_j = totals Opt.Driver.Jumps machine in
      Alcotest.(check bool)
        (machine.Machine.short ^ ": LOOPS removes >= 40% of jumps")
        true
        (float_of_int uj_l < 0.6 *. float_of_int uj_s);
      Alcotest.(check bool)
        (machine.Machine.short ^ ": JUMPS leaves < 0.5% jumps")
        true
        (float_of_int uj_j < 0.005 *. float_of_int tot_j))
    Helpers.machines

(* Section 5.2: the average dynamic basic-block length (instructions
   between branches) grows under JUMPS. *)
let test_block_length_grows () =
  let avg level =
    let ms = Harness.Measure.run_suite level Machine.risc in
    List.fold_left
      (fun acc m -> acc +. Harness.Measure.instrs_between_branches m)
      0.0 ms
    /. float_of_int (List.length ms)
  in
  let s = avg Opt.Driver.Simple and j = avg Opt.Driver.Jumps in
  Alcotest.(check bool) "blocks grow under JUMPS" true (j > s)

(* Section 5.2: executed no-ops drop under JUMPS on the RISC (removed
   unconditional jumps take their unfillable delay slots with them). *)
let test_nops_drop () =
  let nops level =
    List.fold_left
      (fun acc (m : Harness.Measure.t) -> acc + m.dyn_nops)
      0
      (Harness.Measure.run_suite level Machine.risc)
  in
  let s = nops Opt.Driver.Simple and j = nops Opt.Driver.Jumps in
  Alcotest.(check bool) "fewer executed no-ops" true (j < s);
  Alcotest.(check bool) "a substantial share is eliminated" true
    (float_of_int (s - j) > 0.10 *. float_of_int s)

(* Static growth ordering (Table 5): LOOPS grows code by a few percent,
   JUMPS by a lot more. *)
let test_static_growth_ordering () =
  List.iter
    (fun machine ->
      let total level =
        List.fold_left
          (fun acc (m : Harness.Measure.t) -> acc + m.static_instrs)
          0
          (Harness.Measure.run_suite level machine)
      in
      let s = total Opt.Driver.Simple in
      let l = total Opt.Driver.Loops in
      let j = total Opt.Driver.Jumps in
      Alcotest.(check bool) "LOOPS grows a little" true
        (float_of_int l < 1.10 *. float_of_int s);
      Alcotest.(check bool) "JUMPS grows more than LOOPS" true (j > l);
      Alcotest.(check bool) "JUMPS grows noticeably" true
        (float_of_int j > 1.05 *. float_of_int s))
    Helpers.machines

(* Table 6's crossover: on large (8 Kb) caches the average fetch cost
   drops under JUMPS. *)
let test_fetch_cost_drops_on_large_caches () =
  List.iter
    (fun machine ->
      let cost level =
        List.fold_left
          (fun acc (m : Harness.Measure.t) ->
            let c =
              List.find
                (fun (c : Harness.Measure.cache_stats) ->
                  c.config.size_bytes = 8 * 1024
                  && not c.config.context_switches)
                m.caches
            in
            acc + c.fetch_cost)
          0
          (Harness.Measure.run_suite level machine)
      in
      Alcotest.(check bool)
        (machine.Machine.short ^ ": 8Kb fetch cost drops under JUMPS")
        true
        (cost Opt.Driver.Jumps < cost Opt.Driver.Simple))
    Helpers.machines

let tests =
  ( "paper-shapes",
    [
      Alcotest.test_case "table 1 shape" `Quick test_table1_shape;
      Alcotest.test_case "table 2 shape" `Quick test_table2_shape;
      Alcotest.test_case "jump elimination rates" `Slow test_jump_elimination_rates;
      Alcotest.test_case "block length grows" `Slow test_block_length_grows;
      Alcotest.test_case "no-ops drop" `Slow test_nops_drop;
      Alcotest.test_case "static growth ordering" `Slow test_static_growth_ordering;
      Alcotest.test_case "fetch cost drops on 8Kb" `Slow test_fetch_cost_drops_on_large_caches;
    ] )
