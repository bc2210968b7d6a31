let levels = [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ]
let machines = [ Ir.Machine.risc; Ir.Machine.cisc ]

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    sqrt (mean (List.map (fun x -> (x -. m) ** 2.0) xs))

let pct a b = 100.0 *. float_of_int a /. float_of_int (max 1 b)

let change now base = 100.0 *. (float_of_int now -. float_of_int base) /. float_of_int (max 1 base)

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

let table4 ppf =
  Fmt.pf ppf
    "Table 4: percent of instructions that are unconditional jumps@.@.";
  Fmt.pf ppf "%-22s | %-24s | %-24s@." ""
    "static (SIMPLE/LOOPS/JUMPS)" "dynamic (SIMPLE/LOOPS/JUMPS)";
  List.iter
    (fun machine ->
      let stats level =
        let ms = Measure.run_suite level machine in
        let st = List.map (fun (m : Measure.t) -> pct m.static_ujumps m.static_instrs) ms in
        let dy = List.map (fun (m : Measure.t) -> pct m.dyn_ujumps m.dyn_instrs) ms in
        (st, dy)
      in
      let all = List.map stats levels in
      let line f title =
        Fmt.pf ppf "%-22s |" (machine.Ir.Machine.name ^ " " ^ title);
        List.iter (fun (st, _) -> Fmt.pf ppf " %6.2f%%" (f st)) all;
        Fmt.pf ppf "  |";
        List.iter (fun (_, dy) -> Fmt.pf ppf " %6.2f%%" (f dy)) all;
        Fmt.pf ppf "@."
      in
      line mean "avg";
      line stddev "std")
    machines;
  Fmt.pf ppf "@."

let table5 ppf =
  Fmt.pf ppf "Table 5: number of static and dynamic instructions@.";
  List.iter
    (fun machine ->
      Fmt.pf ppf "@.%s@." machine.Ir.Machine.name;
      Fmt.pf ppf "%-12s %10s %9s %9s | %12s %9s %9s@." "program" "static"
        "LOOPS" "JUMPS" "dynamic" "LOOPS" "JUMPS";
      let totals = ref (0, 0) in
      List.iter
        (fun (b : Programs.Suite.benchmark) ->
          let m level = Measure.run b level machine in
          let s = m Opt.Driver.Simple in
          let l = m Opt.Driver.Loops in
          let j = m Opt.Driver.Jumps in
          totals := (fst !totals + s.static_instrs, snd !totals + s.dyn_instrs);
          Fmt.pf ppf "%-12s %10d %+8.2f%% %+8.2f%% | %12d %+8.2f%% %+8.2f%%@."
            b.name s.static_instrs
            (change l.static_instrs s.static_instrs)
            (change j.static_instrs s.static_instrs)
            s.dyn_instrs
            (change l.dyn_instrs s.dyn_instrs)
            (change j.dyn_instrs s.dyn_instrs))
        Programs.Suite.all;
      (* averages of the per-program percentage changes, as in the paper *)
      let avg f =
        mean
          (List.map
             (fun (b : Programs.Suite.benchmark) ->
               let s = Measure.run b Opt.Driver.Simple machine in
               f s (Measure.run b Opt.Driver.Loops machine)
                 (Measure.run b Opt.Driver.Jumps machine))
             Programs.Suite.all)
      in
      let avg_static_l =
        avg (fun s l _ -> change l.Measure.static_instrs s.Measure.static_instrs)
      and avg_static_j =
        avg (fun s _ j -> change j.Measure.static_instrs s.Measure.static_instrs)
      and avg_dyn_l =
        avg (fun s l _ -> change l.Measure.dyn_instrs s.Measure.dyn_instrs)
      and avg_dyn_j =
        avg (fun s _ j -> change j.Measure.dyn_instrs s.Measure.dyn_instrs)
      in
      Fmt.pf ppf "%-12s %10s %+8.2f%% %+8.2f%% | %12s %+8.2f%% %+8.2f%%@."
        "average" "" avg_static_l avg_static_j "" avg_dyn_l avg_dyn_j)
    machines;
  Fmt.pf ppf "@."

let table6 ppf =
  Fmt.pf ppf
    "Table 6: percent change in miss ratio and instruction fetch cost@.";
  let sizes = [ 1; 2; 4; 8 ] in
  let find_cache (m : Measure.t) ~kb ~cs =
    List.find
      (fun (c : Measure.cache_stats) ->
        c.config.size_bytes = kb * 1024 && c.config.context_switches = cs)
      m.caches
  in
  List.iter
    (fun what ->
      Fmt.pf ppf "@.%s:@."
        (match what with `Miss -> "cache miss ratio (percentage points)"
                       | `Cost -> "instruction fetch cost (percent)");
      Fmt.pf ppf "%-28s" "machine / ctx switches";
      List.iter (fun kb -> Fmt.pf ppf "  %5dKb LOOPS JUMPS " kb) sizes;
      Fmt.pf ppf "@.";
      List.iter
        (fun machine ->
          List.iter
            (fun cs ->
              Fmt.pf ppf "%-28s"
                (Printf.sprintf "%s / %s" machine.Ir.Machine.name
                   (if cs then "on" else "off"));
              List.iter
                (fun kb ->
                  let delta level =
                    mean
                      (List.map
                         (fun (b : Programs.Suite.benchmark) ->
                           let s = Measure.run b Opt.Driver.Simple machine in
                           let m = Measure.run b level machine in
                           let cs_s = find_cache s ~kb ~cs in
                           let cs_m = find_cache m ~kb ~cs in
                           match what with
                           | `Miss ->
                             100.0 *. (cs_m.miss_ratio -. cs_s.miss_ratio)
                           | `Cost -> change cs_m.fetch_cost cs_s.fetch_cost)
                         Programs.Suite.all)
                  in
                  Fmt.pf ppf "   %+6.2f %+6.2f    "
                    (delta Opt.Driver.Loops) (delta Opt.Driver.Jumps))
                sizes;
              Fmt.pf ppf "@.")
            [ true; false ])
        machines)
    [ `Miss; `Cost ];
  Fmt.pf ppf "@."

let block_stats ppf =
  Fmt.pf ppf "Section 5.2 statistics@.@.";
  Fmt.pf ppf "instructions between branches (dynamic):@.";
  List.iter
    (fun machine ->
      Fmt.pf ppf "  %-18s" machine.Ir.Machine.name;
      List.iter
        (fun level ->
          let ms = Measure.run_suite level machine in
          Fmt.pf ppf " %s=%5.2f" (Opt.Driver.level_name level)
            (mean (List.map Measure.instrs_between_branches ms)))
        levels;
      Fmt.pf ppf "@.")
    machines;
  let risc = Ir.Machine.risc in
  let nops level =
    List.fold_left
      (fun acc (m : Measure.t) -> acc + m.dyn_nops)
      0 (Measure.run_suite level risc)
  in
  let s = nops Opt.Driver.Simple and j = nops Opt.Driver.Jumps in
  Fmt.pf ppf
    "@.executed no-ops on the RISC: SIMPLE=%d JUMPS=%d (%.1f%% eliminated)@.@."
    s j
    (100.0 *. float_of_int (s - j) /. float_of_int (max 1 s))

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
    ( change j.Measure.static_instrs s.Measure.static_instrs,
      change j.Measure.dyn_instrs s.Measure.dyn_instrs,
      pct j.Measure.dyn_ujumps j.Measure.dyn_instrs )
  in
  let rows = List.map per Programs.Suite.all in
  ( mean (List.map (fun (a, _, _) -> a) rows),
    mean (List.map (fun (_, b, _) -> b) rows),
    mean (List.map (fun (_, _, c) -> c) rows) )

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
        mean
          (List.map
             (fun b ->
               change (fetch_cost assoc level b)
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
  let dyn opts level (b : Programs.Suite.benchmark) =
    let prog =
      Opt.Driver.optimize
        { opts with Opt.Driver.level }
        machine
        (Frontend.Codegen.compile_source b.source)
    in
    let asm = Sim.Asm.assemble machine prog in
    (Sim.Engine.run ~input:b.input asm prog).counts.total
  in
  let row name opts =
    let delta =
      mean
        (List.map
           (fun b ->
             change (dyn opts Opt.Driver.Jumps b) (dyn opts Opt.Driver.Simple b))
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
