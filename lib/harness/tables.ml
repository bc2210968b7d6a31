(* ------------------------------------------------------------------ *)
(* Tables 1 and 2: RTL listings before and after replication.          *)

let show_example ?(func = "main") ppf title source =
  let compile level =
    let prog =
      Opt.Driver.compile
        { Opt.Driver.default_options with level; allocate = true }
        Ir.Machine.cisc source
    in
    Option.get (Flow.Prog.find_func prog func)
  in
  Fmt.pf ppf "%s@.%s@." title (String.make (String.length title) '-');
  Fmt.pf ppf "@.C source:%s@." source;
  Fmt.pf ppf "@.without replication (SIMPLE):@.%a@." Flow.Func.pp
    (compile Opt.Driver.Simple);
  Fmt.pf ppf "@.with replication (JUMPS):@.%a@.@." Flow.Func.pp
    (compile Opt.Driver.Jumps)

let table1 ppf =
  show_example ppf "Table 1: exit condition in the middle of a loop"
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

let table2 ppf =
  show_example ~func:"compute" ppf "Table 2: if-then-else statement"
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

let table3 ppf =
  Fmt.pf ppf "Table 3: test set of C programs@.";
  Fmt.pf ppf "%-10s %-12s %s@." "Class" "Name" "Description";
  List.iter
    (fun (b : Programs.Suite.benchmark) ->
      Fmt.pf ppf "%-10s %-12s %s@." b.clazz b.name b.description)
    Programs.Suite.all

(* ------------------------------------------------------------------ *)

let figures ppf =
  let open Ir in
  let open Flow in
  let mk shape =
    let lsupply = Label.Supply.create () in
    let vsupply = Reg.Supply.create () in
    let labels = Array.init (Array.length shape) (fun _ -> Label.Supply.fresh lsupply) in
    let blocks =
      Array.mapi
        (fun i term ->
          let pad = [ Rtl.Move (Lreg (Reg.Virt i), Imm i) ] in
          let tail =
            match term with
            | `Fall -> []
            | `Jmp t -> [ Rtl.Jump labels.(t) ]
            | `Br t -> [ Rtl.Cmp (Reg (Reg.Virt 99), Imm 0); Rtl.Branch (Rtl.Ne, labels.(t)) ]
            | `Ret -> [ Rtl.Leave; Rtl.Ret ]
          in
          { Func.label = labels.(i); instrs = pad @ tail })
        shape
    in
    blocks.(0) <- { (blocks.(0)) with instrs = Rtl.Enter 8 :: blocks.(0).instrs };
    Func.make ~name:"fig" ~blocks ~lsupply ~vsupply
  in
  let demo title f =
    Fmt.pf ppf "%s@.%s@." title (String.make (String.length title) '-');
    Fmt.pf ppf "before:@.%a@." Func.pp f;
    let f', changed = Replication.Jumps.run Replication.Jumps.default_config f in
    let g = Cfg.make f' in
    let red = Loops.is_reducible g (Dom.compute g) in
    Fmt.pf ppf "after JUMPS (changed=%b, reducible=%b):@.%a@.@." changed red
      Func.pp f'
  in
  demo "Figure 1: jump to a block entering a natural loop"
    (mk [| `Br 2; `Jmp 3; `Fall; `Br 5; `Jmp 3; `Ret |]);
  demo "Figure 2: replication initiated from inside a loop"
    (mk [| `Fall; `Fall; `Br 4; `Jmp 1; `Ret |])

(* ------------------------------------------------------------------ *)

let savings machine opts =
  (* Average change in static and dynamic counts vs SIMPLE over the suite
     under custom JUMPS options. *)
  let per (b : Programs.Suite.benchmark) =
    let s = Measure.run b Opt.Driver.Simple machine in
    let j = Measure.run ~opts b Opt.Driver.Jumps machine in
    ( Report.change j.Measure.static_instrs s.Measure.static_instrs,
      Report.change j.Measure.dyn_instrs s.Measure.dyn_instrs,
      Report.pct j.Measure.dyn_ujumps j.Measure.dyn_instrs )
  in
  let rows = List.map per Programs.Suite.all in
  ( Report.mean (List.map (fun (a, _, _) -> a) rows),
    Report.mean (List.map (fun (_, b, _) -> b) rows),
    Report.mean (List.map (fun (_, _, c) -> c) rows) )

let ablation_cap ppf =
  Fmt.pf ppf
    "Ablation (paper \xc2\xa76): bounded replication-sequence length@.@.";
  Fmt.pf ppf "%-10s %12s %12s %14s@." "cap(RTLs)" "static" "dynamic"
    "dyn ujumps %%";
  List.iter
    (fun cap ->
      let opts =
        { Opt.Driver.default_options with
          level = Opt.Driver.Jumps;
          max_rtls = cap;
        }
      in
      let st, dy, uj = savings Ir.Machine.risc opts in
      Fmt.pf ppf "%-10s %+11.2f%% %+11.2f%% %13.3f%%@."
        (match cap with None -> "unbounded" | Some c -> string_of_int c)
        st dy uj)
    [ Some 4; Some 8; Some 16; Some 32; None ];
  Fmt.pf ppf "@."

let ablation_heuristic ppf =
  Fmt.pf ppf "Ablation: step-2 candidate heuristic (RISC)@.@.";
  Fmt.pf ppf "%-16s %12s %12s %14s@." "heuristic" "static" "dynamic"
    "dyn ujumps %%";
  List.iter
    (fun (name, h) ->
      let opts =
        { Opt.Driver.default_options with
          level = Opt.Driver.Jumps;
          heuristic = h;
        }
      in
      let st, dy, uj = savings Ir.Machine.risc opts in
      Fmt.pf ppf "%-16s %+11.2f%% %+11.2f%% %13.3f%%@." name st dy uj)
    [
      ("shorter", Replication.Jumps.Shorter);
      ("favor-returns", Replication.Jumps.Favor_returns);
      ("favor-loops", Replication.Jumps.Favor_loops);
    ];
  Fmt.pf ppf "@."

let ablation_assoc ppf =
  Fmt.pf ppf
    "Ablation (extension): associativity vs the small-cache JUMPS penalty@.@.";
  Fmt.pf ppf
    "1Kb instruction cache, no context switches, RISC; average fetch-cost@.";
  Fmt.pf ppf "change vs SIMPLE over the suite:@.@.";
  Fmt.pf ppf "%-12s %12s %12s@." "assoc" "LOOPS" "JUMPS";
  let machine = Ir.Machine.risc in
  let fetch_cost assoc level (b : Programs.Suite.benchmark) =
    let prog =
      Opt.Driver.optimize
        { Opt.Driver.default_options with level }
        machine
        (Frontend.Codegen.compile_source b.source)
    in
    let asm = Sim.Asm.assemble machine prog in
    let bank =
      Icache.Bank.create
        [ { Icache.size_bytes = 1024; line_bytes = 16; context_switches = false; assoc } ]
    in
    let on_fetch ~addr ~size = Icache.Bank.access bank ~addr ~size in
    let _ = Sim.Engine.run ~input:b.input ~on_fetch asm prog in
    Icache.Bank.fetch_cost bank 0
  in
  List.iter
    (fun assoc ->
      let delta level =
        Report.mean
          (List.map
             (fun b ->
               Report.change (fetch_cost assoc level b)
                 (fetch_cost assoc Opt.Driver.Simple b))
             Programs.Suite.all)
      in
      Fmt.pf ppf "%-12s %+11.2f%% %+11.2f%%@."
        (if assoc = 1 then "direct" else Printf.sprintf "%d-way" assoc)
        (delta Opt.Driver.Loops) (delta Opt.Driver.Jumps))
    [ 1; 2; 4 ];
  Fmt.pf ppf "@."

let ablation_passes ppf =
  Fmt.pf ppf
    "Ablation (paper section 3.3): replication's dependence on cleanup passes@.@.";
  Fmt.pf ppf
    "Average dynamic change of JUMPS vs a SIMPLE build with the same passes@.";
  Fmt.pf ppf "disabled (RISC):@.@.";
  Fmt.pf ppf "%-22s %12s@." "configuration" "dynamic";
  let machine = Ir.Machine.risc in
  (* Measured with output verification: a miscompiled ablation build
     lands in [Measure.mismatches] and fails the run. *)
  let dyn opts level b = (Measure.run ~opts b level machine).dyn_instrs in
  let row name opts =
    let delta =
      Report.mean
        (List.map
           (fun b ->
             Report.change
               (dyn opts Opt.Driver.Jumps b)
               (dyn opts Opt.Driver.Simple b))
           Programs.Suite.all)
    in
    Fmt.pf ppf "%-22s %+11.2f%%@." name delta
  in
  let base = Opt.Driver.default_options in
  row "all passes" base;
  row "without CSE" { base with enable_cse = false };
  row "without code motion" { base with enable_licm = false };
  row "without strength red." { base with enable_strength = false };
  row "without isel" { base with enable_isel = false };
  row "cleanups off"
    { base with
      enable_cse = false;
      enable_licm = false;
      enable_strength = false;
      enable_isel = false;
    };
  Fmt.pf ppf "@."
