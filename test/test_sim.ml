(* Assembler (linearization, delay slots, addresses), memory image and
   interpreter. *)

open Ir

let assemble ?(machine = Machine.risc) src =
  let prog =
    Opt.Driver.compile { Opt.Driver.default_options with level = Simple }
      machine src
  in
  (Sim.Asm.assemble machine prog, prog)

let tiny = "int main() { int i; i = 3; if (i > 1) i = i * 2; return i; }"

let test_delay_slot_structure () =
  let asm, _ = assemble tiny in
  List.iter
    (fun (f : Sim.Asm.afunc) ->
      Array.iteri
        (fun k i ->
          if Rtl.is_transfer i || (match i with Rtl.Call _ -> true | _ -> false)
          then begin
            (* every transfer is followed by a non-transfer slot *)
            Alcotest.(check bool) "slot exists" true (k + 1 < Array.length f.code);
            let slot = f.code.(k + 1) in
            Alcotest.(check bool) "slot is not a transfer" false
              (Rtl.is_transfer slot);
            (* no label may point between a transfer and its slot *)
            Ir.Label.Map.iter
              (fun _ pos ->
                Alcotest.(check bool) "no label on a slot" true (pos <> k + 1))
              f.label_pos
          end)
        f.code)
    asm.funcs

let test_no_slots_on_cisc () =
  let asm, _ = assemble ~machine:Machine.cisc tiny in
  Alcotest.(check int) "no nops inserted" 0 (Sim.Asm.static_nops asm)

let test_addresses_monotonic () =
  List.iter
    (fun machine ->
      let asm, _ = assemble ~machine tiny in
      List.iter
        (fun (f : Sim.Asm.afunc) ->
          let ok = ref true in
          Array.iteri
            (fun k a ->
              if k > 0 then begin
                let prev = f.addrs.(k - 1) + f.sizes.(k - 1) in
                if a <> prev then ok := false
              end)
            f.addrs;
          Alcotest.(check bool) "contiguous addresses" true !ok;
          Array.iteri
            (fun k size ->
              (* CISC branch displacement may shrink a transfer below its
                 fixed size, never grow it; RISC sizes are exact. *)
              let fixed = Machine.instr_size machine f.code.(k) in
              if machine.Machine.kind = Machine.Cisc then
                Alcotest.(check bool)
                  (Printf.sprintf "size within fixed bound (%d)" k)
                  true (size <= fixed && size > 0)
              else
                Alcotest.(check int)
                  (Printf.sprintf "size matches machine (%d)" k)
                  fixed size)
            f.sizes)
        asm.funcs)
    [ Machine.risc; Machine.cisc ]

let test_functions_disjoint () =
  let src = "int f(int x) { return x + 1; } int main() { return f(1); }" in
  let asm, _ = assemble src in
  match asm.funcs with
  | [ a; b ] ->
    Alcotest.(check bool) "non-overlapping" true
      (a.end_addr <= b.base || b.end_addr <= a.base)
  | _ -> Alcotest.fail "expected two functions"

let test_slot_fill_effectiveness () =
  (* At least some slots are filled with useful instructions, not nops. *)
  let asm, prog = assemble (Option.get (Programs.Suite.find "wc")).source in
  let res = Sim.Engine.run ~input:"hello world\n" asm prog in
  Alcotest.(check bool) "some useful slots" true
    (Sim.Asm.static_nops asm < Sim.Asm.static_instrs asm / 4);
  Alcotest.(check bool) "ran" true (res.counts.total > 0)

(* --- Image --- *)

let test_image_layout () =
  let prog =
    Frontend.Codegen.compile_source
      {|
int x = 5;
char msg[] = "hi";
int tab[] = { 1, 2, 3 };
char *p = "zz";
int main() { return 0; }
|}
  in
  let img = Sim.Image.build prog in
  Alcotest.(check int) "scalar init" 5 (Sim.Image.load_word img (Sim.Image.symbol img "x"));
  let msg = Sim.Image.symbol img "msg" in
  Alcotest.(check int) "string byte 0" (Char.code 'h') (Sim.Image.load_byte img msg);
  Alcotest.(check int) "string nul" 0 (Sim.Image.load_byte img (msg + 2));
  let tab = Sim.Image.symbol img "tab" in
  Alcotest.(check int) "array elt 2" 3 (Sim.Image.load_word img (tab + 8));
  let p = Sim.Image.load_word img (Sim.Image.symbol img "p") in
  Alcotest.(check int) "pointer init points at 'z'" (Char.code 'z')
    (Sim.Image.load_byte img p);
  Alcotest.check_raises "null deref faults" (Sim.Image.Fault "byte load at 0x0 is out of range")
    (fun () -> ignore (Sim.Image.load_byte img 0))

let test_image_word_roundtrip () =
  let prog = Frontend.Codegen.compile_source "int b[4]; int main(){return 0;}" in
  let img = Sim.Image.build prog in
  let a = Sim.Image.symbol img "b" in
  List.iter
    (fun v ->
      Sim.Image.store_word img a v;
      Alcotest.(check int) "word roundtrip" (Ir.Arith.norm v)
        (Sim.Image.load_word img a))
    [ 0; 1; -1; 0x7FFFFFFF; -0x80000000; 123456789; -987654321 ]

(* --- Interpreter --- *)

let test_exit_code () =
  let _, code = Helpers.run "int main() { return 41 + 1; }" in
  Alcotest.(check int) "return from main" 42 code

let test_exit_builtin () =
  let out, code =
    Helpers.run "int main() { putchar('a'); exit(7); putchar('b'); return 0; }"
  in
  Alcotest.(check string) "output before exit" "a" out;
  Alcotest.(check int) "exit code" 7 code

let test_runtime_errors () =
  let expect_error src =
    let prog =
      Opt.Driver.compile Opt.Driver.default_options Machine.cisc src
    in
    let asm = Sim.Asm.assemble Machine.cisc prog in
    match Sim.Engine.run asm prog with
    | exception Sim.Interp.Runtime_error _ -> ()
    | _ -> Alcotest.fail "expected a runtime error"
  in
  expect_error "int main() { int x; x = getchar(); return 1 / (x + 1); }";
  (* null pointer dereference *)
  expect_error "int main() { int *p; p = 0; return *p; }";
  (* Step-budget exhaustion is a distinct timeout outcome, not a runtime
     error: the result carries [timed_out] and the conventional exit 124. *)
  let prog =
    Opt.Driver.compile Opt.Driver.default_options Machine.cisc
      "int main() { for (;;) ; return 0; }"
  in
  let asm = Sim.Asm.assemble Machine.cisc prog in
  let res = Sim.Engine.run ~max_steps:1000 asm prog in
  Alcotest.(check bool) "timed out" true res.timed_out;
  Alcotest.(check int) "timeout exit code" 124 res.exit_code

let test_getchar_eof () =
  let out, _ =
    Helpers.run ~input:"ab"
      {|
int main() {
  int c, n;
  n = 0;
  while ((c = getchar()) != -1) n = n + 1;
  /* further reads keep returning -1 */
  if (getchar() == -1 && getchar() == -1) n = n + 100;
  putchar('0' + n % 10); putchar('\n');
  return 0;
}
|}
  in
  Alcotest.(check string) "eof behavior" "2\n" out

let test_counts_track_classes () =
  let res, _ =
    Helpers.run_counts ~machine:Machine.cisc
      "int main() { int i; for (i = 0; i < 5; i++) putchar('x'); return 0; }"
  in
  Alcotest.(check int) "five calls" 5 res.counts.calls;
  Alcotest.(check int) "one return" 1 res.counts.rets;
  Alcotest.(check bool) "branches counted" true (res.counts.cond_branches >= 5);
  Alcotest.(check bool) "total covers everything" true
    (res.counts.total
     >= res.counts.calls + res.counts.rets + res.counts.cond_branches)

let test_fetch_callback () =
  let src = "int main() { return 0; }" in
  let prog = Opt.Driver.compile Opt.Driver.default_options Machine.risc src in
  let asm = Sim.Asm.assemble Machine.risc prog in
  let fetches = ref 0 in
  let res =
    Sim.Engine.run
      ~on_fetch:(fun ~addr:_ ~size -> if size = 4 then incr fetches)
      asm prog
  in
  Alcotest.(check int) "one fetch per executed instruction"
    res.counts.total !fetches

let test_delay_slot_semantics () =
  (* The canonical case: on RISC the instruction before a taken branch gets
     moved into its slot; results must match the CISC execution exactly. *)
  let src =
    {|
int main() {
  int i, s;
  s = 0;
  for (i = 0; i < 7; i++) { s = s * 2 + i; if (s > 50) s = s - 13; }
  putchar('0' + s % 10); putchar('\n');
  return 0;
}
|}
  in
  let out_c, _ = Helpers.run ~machine:Machine.cisc src in
  let out_r, _ = Helpers.run ~machine:Machine.risc src in
  Alcotest.(check string) "risc equals cisc" out_c out_r

let check_counts name (a : Sim.Interp.counts) (b : Sim.Interp.counts) =
  let field fname get =
    Alcotest.(check int) (name ^ " " ^ fname) (get a) (get b)
  in
  field "total" (fun c -> c.Sim.Interp.total);
  field "cond_branches" (fun c -> c.Sim.Interp.cond_branches);
  field "jumps" (fun c -> c.Sim.Interp.jumps);
  field "ijumps" (fun c -> c.Sim.Interp.ijumps);
  field "calls" (fun c -> c.Sim.Interp.calls);
  field "rets" (fun c -> c.Sim.Interp.rets);
  field "nops" (fun c -> c.Sim.Interp.nops);
  field "loads" (fun c -> c.Sim.Interp.loads);
  field "stores" (fun c -> c.Sim.Interp.stores)

(* Fold the fetch stream into a hash instead of materializing millions
   of (addr, size) pairs. *)
let trace run =
  let h = ref 0 and n = ref 0 in
  let on_fetch ~addr ~size =
    incr n;
    h := (((!h * 31) + addr) * 31) + size
  in
  (run ~on_fetch, !h, !n)

let check_same_run name (r, rh, rn) (d, dh, dn) =
  Alcotest.(check string) (name ^ " output") r.Sim.Interp.output
    d.Sim.Interp.output;
  Alcotest.(check int) (name ^ " exit") r.exit_code d.exit_code;
  Alcotest.(check bool) (name ^ " timeout") r.timed_out d.timed_out;
  check_counts name r.counts d.counts;
  Alcotest.(check int) (name ^ " fetch count") rn dn;
  Alcotest.(check int) (name ^ " fetch hash") rh dh

let test_engine_matches_reference () =
  (* The engine must be observationally identical to the straightforward
     reference loop ([Interp_oracle]): same output, exit code, timeout
     verdict, per-class counts and per-instruction fetch stream, across
     the whole benchmark matrix. *)
  List.iter
    (fun (machine, mname) ->
      List.iter
        (fun level ->
          List.iter
            (fun (b : Programs.Suite.benchmark) ->
              let prog =
                Opt.Driver.compile
                  { Opt.Driver.default_options with level }
                  machine b.source
              in
              let asm = Sim.Asm.assemble machine prog in
              let name =
                Printf.sprintf "%s/%s/%s" b.name
                  (Opt.Driver.level_name level)
                  mname
              in
              check_same_run name
                (trace (fun ~on_fetch ->
                     Interp_oracle.run ~input:b.input ~on_fetch asm prog))
                (trace (fun ~on_fetch ->
                     Sim.Engine.run ~input:b.input ~on_fetch asm prog)))
            Programs.Suite.all)
        [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ])
    [ (Machine.risc, "risc"); (Machine.cisc, "cisc") ]

let test_engine_matches_on_timeout () =
  (* A step budget that expires mid-superblock must stop the engine at
     the exact instruction the reference stops at — partial counts,
     partial output and the fetch-stream prefix are observable in a
     timed-out measurement.  Sweep max_steps over a range that lands in
     every phase of the hot loop. *)
  let src =
    "int main() { int i; int s; s = 0; for (i = 0; i < 100; i++) s = s + i; \
     return s & 255; }"
  in
  let prog =
    Opt.Driver.compile
      { Opt.Driver.default_options with level = Opt.Driver.Jumps }
      Machine.risc src
  in
  let asm = Sim.Asm.assemble Machine.risc prog in
  for max_steps = 1 to 120 do
    check_same_run
      (Printf.sprintf "steps=%d" max_steps)
      (trace (fun ~on_fetch -> Interp_oracle.run ~max_steps ~on_fetch asm prog))
      (trace (fun ~on_fetch -> Sim.Engine.run ~max_steps ~on_fetch asm prog))
  done

(* A run that must fault: its message, and the hash and length of the
   fetch stream up to the fault. *)
let faulting run =
  let h = ref 0 and n = ref 0 in
  let on_fetch ~addr ~size =
    incr n;
    h := (((!h * 31) + addr) * 31) + size
  in
  match run ~on_fetch with
  | (_ : Sim.Interp.result) -> Alcotest.fail "expected a fault"
  | exception Sim.Interp.Runtime_error msg -> (msg, !h, !n)

let test_engine_matches_on_fault () =
  (* A faulting run has no result, but its fetch stream reached the
     cache simulator as it happened: the engine must have fetched the
     same exact prefix as the reference when the fault fires. *)
  let src = "int main() { int x; x = getchar(); return 10 / (x + 1); }" in
  let prog =
    Opt.Driver.compile
      { Opt.Driver.default_options with level = Opt.Driver.Jumps }
      Machine.risc src
  in
  let asm = Sim.Asm.assemble Machine.risc prog in
  let _, rh, rn =
    faulting (fun ~on_fetch -> Interp_oracle.run ~input:"" ~on_fetch asm prog)
  in
  let _, h, n =
    faulting (fun ~on_fetch -> Sim.Engine.run ~input:"" ~on_fetch asm prog)
  in
  Alcotest.(check int) "fetch count" rn n;
  Alcotest.(check int) "fetch hash" rh h

(* The corpus sweep above checks known programs; this property checks
   arbitrary generated ones, shrinking failures with the fuzz campaign's
   own reducer. *)
let prop_engines_agree_on_random =
  let arb =
    QCheck.make ~print:Harness.Gen.to_c
      ~shrink:(fun p yield -> Seq.iter yield (Harness.Gen.shrink p))
      Harness.Gen.generate
  in
  QCheck.Test.make ~name:"engines agree on random programs" ~count:25 arb
    (fun p ->
      let src = Harness.Gen.to_c p in
      List.for_all
        (fun machine ->
          let prog =
            Opt.Driver.compile
              { Opt.Driver.default_options with level = Opt.Driver.Jumps }
              machine src
          in
          let asm = Sim.Asm.assemble machine prog in
          let observe run =
            let r, h, n = trace run in
            ( r.Sim.Interp.output,
              r.exit_code,
              r.timed_out,
              r.counts,
              h,
              n )
          in
          observe (fun ~on_fetch ->
              Sim.Engine.run ~max_steps:3_000_000 ~on_fetch asm prog)
          = observe (fun ~on_fetch ->
                Interp_oracle.run ~max_steps:3_000_000 ~on_fetch asm prog))
        [ Machine.risc; Machine.cisc ])

(* --- feeding a cache bank by superblocks ------------------------------

   [Engine.run ~bank] hands the bank one fetch slice per superblock
   execution; every statistic of the bank must equal feeding each
   [on_fetch] call to [Bank.access] — on completed runs and on runs cut
   short by the step budget. *)

let bank_stats bank =
  Array.to_list
    (Array.mapi
       (fun i c ->
         Printf.sprintf "%s hits %d misses %d accesses %d ratio %h cost %d"
           (Icache.config_name c) (Icache.Bank.hits bank i)
           (Icache.Bank.misses bank i)
           (Icache.Bank.accesses bank i)
           (Icache.Bank.miss_ratio bank i)
           (Icache.Bank.fetch_cost bank i))
       (Icache.Bank.configs bank))

let check_bank_feed ?max_steps ?(input = "") name configs asm prog =
  let per_fetch = Icache.Bank.create configs in
  let r =
    Sim.Engine.run ?max_steps ~input
      ~on_fetch:(fun ~addr ~size -> Icache.Bank.access per_fetch ~addr ~size)
      asm prog
  in
  let by_block = Icache.Bank.create configs in
  let d = Sim.Engine.run ?max_steps ~input ~bank:by_block asm prog in
  Alcotest.(check string) (name ^ " output") r.output d.output;
  Alcotest.(check int) (name ^ " exit") r.exit_code d.exit_code;
  Alcotest.(check bool) (name ^ " timeout") r.timed_out d.timed_out;
  check_counts name r.counts d.counts;
  Alcotest.(check (list string)) (name ^ " bank") (bank_stats per_fetch)
    (bank_stats by_block)

(* LRU sets and context switches beside the paper's eight: every fetch
   takes the general path. *)
let mixed_configs = Test_icache.mixed_configs

let compiled level machine source =
  let prog = Helpers.compile ~level ~machine source in
  (Sim.Asm.assemble machine prog, prog)

let configs_6 =
  List.concat_map
    (fun (machine, mname) ->
      List.map
        (fun level ->
          (level, machine, Opt.Driver.level_name level ^ "/" ^ mname))
        [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ])
    [ (Machine.risc, "risc"); (Machine.cisc, "cisc") ]

let test_bank_feed_paper_matrix () =
  List.iter
    (fun (level, machine, cname) ->
      List.iter
        (fun (b : Programs.Suite.benchmark) ->
          let asm, prog = compiled level machine b.source in
          check_bank_feed ~input:b.input (b.name ^ "/" ^ cname)
            Icache.paper_configs asm prog)
        Programs.Suite.all)
    configs_6

let test_bank_feed_gen_seeds () =
  for seed = 0 to 39 do
    let src = Harness.Gen.to_c (Harness.Gen.generate (Random.State.make [| seed |])) in
    List.iter
      (fun (level, machine, cname) ->
        let asm, prog = compiled level machine src in
        check_bank_feed ~max_steps:3_000_000
          (Printf.sprintf "gen%d/%s" seed cname)
          Icache.paper_configs asm prog)
      configs_6
  done

let test_bank_feed_mixed () =
  List.iter
    (fun (machine, mname) ->
      List.iter
        (fun (b : Programs.Suite.benchmark) ->
          let asm, prog = compiled Opt.Driver.Jumps machine b.source in
          check_bank_feed ~input:b.input (b.name ^ "/jumps/" ^ mname)
            mixed_configs asm prog)
        Programs.Suite.all)
    [ (Machine.risc, "risc"); (Machine.cisc, "cisc") ]

let test_bank_feed_timeouts () =
  (* Step exhaustion at every offset of the superblocks a run executes,
     prefix, fused compare, terminator and delay slot included: a window
     of consecutive budgets at startup, and one after the hot loops have
     warmed the memos, longer than any of their iterations. *)
  let loop_src =
    "int main() { int i; int s; s = 0; for (i = 0; i < 100; i++) s = s + i; \
     return s & 255; }"
  in
  let sources =
    ("loop", loop_src, "")
    :: List.filter_map
         (fun (b : Programs.Suite.benchmark) ->
           if List.mem b.name [ "wc"; "sieve"; "bubblesort" ] then
             Some (b.name, b.source, b.input)
           else None)
         Programs.Suite.all
  in
  Alcotest.(check int) "programs found" 4 (List.length sources);
  List.iter
    (fun (name, src, input) ->
      List.iter
        (fun (machine, mname) ->
          let asm, prog = compiled Opt.Driver.Jumps machine src in
          List.iter
            (fun max_steps ->
              List.iter
                (fun configs ->
                  check_bank_feed ~max_steps ~input
                    (Printf.sprintf "%s/%s steps=%d" name mname max_steps)
                    configs asm prog)
                [ Icache.paper_configs; mixed_configs ])
            (List.init 120 (fun k -> k + 1) @ List.init 120 (fun k -> 3_000 + k)))
        [ (Machine.risc, "risc"); (Machine.cisc, "cisc") ])
    sources

let test_bank_feed_exclusive () =
  let asm, prog = compiled Opt.Driver.Jumps Machine.risc "int main() { return 0; }" in
  Alcotest.check_raises "on_fetch with bank"
    (Invalid_argument "Sim.Engine.run: ~on_fetch and ~bank are exclusive")
    (fun () ->
      ignore
        (Sim.Engine.run
           ~on_fetch:(fun ~addr:_ ~size:_ -> ())
           ~bank:(Icache.Bank.create Icache.paper_configs)
           asm prog))

(* Control enters [main] at position 0, where a transfer stands: the
   engine compiles a superblock with no straight-line prefix (and nothing
   before it to fuse). *)
let test_entry_is_a_transfer () =
  let lsupply = Label.Supply.create () in
  let l0 = Label.Supply.fresh lsupply and l1 = Label.Supply.fresh lsupply in
  let main =
    Flow.Func.make ~name:"main" ~lsupply ~vsupply:(Reg.Supply.create_from 100)
      ~blocks:
        [|
          { Flow.Func.label = l0; instrs = [ Rtl.Jump l1 ] };
          {
            Flow.Func.label = l1;
            instrs =
              [ Rtl.Enter 8; Rtl.Move (Lreg Conv.rv, Imm 7); Rtl.Leave; Rtl.Ret ];
          };
        |]
  in
  let prog = { Flow.Prog.globals = []; funcs = [ main ] } in
  List.iter
    (fun (machine : Machine.t) ->
      let res = Sim.Engine.run ~input:"" (Sim.Asm.assemble machine prog) prog in
      Alcotest.(check int) (machine.short ^ ": exit code") 7 res.exit_code)
    [ Machine.risc; Machine.cisc ]

(* --- the engine's specialised shapes ----------------------------------

   [Sim.Engine] compiles its hottest instruction shapes (physical
   registers, immediates, [reg + disp] words and bytes, compares fused
   into a branch) to one closure each instead of composing operand
   closures.  The hand-built programs below execute every such shape on
   both machines, with immediates outside 32 bits, byte stores that
   truncate and accesses that fault, and the engine must match the
   reference loop on output, exit code, counts and fetch stream, or on
   the fault message and the fetch prefix. *)

let phys i = Reg.Phys i
let r i = Rtl.Reg (phys i)
let mov d src = Rtl.Move (Rtl.Lreg (phys d), src)
let alu op d a b = Rtl.Binop (op, Rtl.Lreg (phys d), r a, b)
let word_at base d = Rtl.Mem (Rtl.Word, Rtl.Based (phys base, d))
let byte_at base d = Rtl.Mem (Rtl.Byte, Rtl.Based (phys base, d))

let store w base d src =
  Rtl.Move (Rtl.Lmem (w, Rtl.Based (phys base, d)), src)

(* Print register [x]'s four low bytes, then those of [x / 7]: the
   quotient depends on bits above 32, so a result that skipped
   normalisation shows in the output. *)
let print_reg x =
  let bytes_of y =
    List.concat_map
      (fun k ->
        [
          Rtl.Binop (Rtl.Shr, Rtl.Lreg (Conv.arg_reg 0), r y, Rtl.Imm (8 * k));
          Rtl.Call ("putchar", 1);
        ])
      [ 0; 1; 2; 3 ]
  in
  bytes_of x @ (alu Rtl.Div 19 x (Rtl.Imm 7) :: bytes_of 19)

let all_binops =
  Rtl.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ]

(* [main] as a list of blocks (label index, instructions), with a 16-byte
   global [buf] for the memory shapes. *)
let rtl_program blocks =
  let lsupply = Label.Supply.create () in
  let labels =
    Array.init (List.length blocks) (fun _ -> Label.Supply.fresh lsupply)
  in
  let main =
    Flow.Func.make ~name:"main" ~lsupply ~vsupply:(Reg.Supply.create_from 100)
      ~blocks:
        (Array.of_list
           (List.mapi
              (fun k instrs ->
                { Flow.Func.label = labels.(k); instrs = instrs labels })
              blocks))
  in
  {
    Flow.Prog.globals =
      [ { Flow.Prog.dname = "buf"; dsize = 16; dinit = [ Zeros 16 ] } ];
    funcs = [ main ];
  }

let shapes_program =
  rtl_program
    [
      (fun _ ->
        [ Rtl.Enter 16; Rtl.Lea (phys 12, Rtl.Abs ("buf", 0)) ]
        (* immediates outside 32 bits, into registers and every ALU op *)
        @ [ mov 13 (Rtl.Imm 0x1_2345_6789); mov 15 (Rtl.Imm (-0x2_0000_0007)) ]
        @ List.concat_map
            (fun op ->
              [ alu op 14 13 (Rtl.Imm 0x3_0000_00F5) ]
              @ print_reg 14
              @ [ alu op 14 13 (Rtl.Imm 35) ]
              @ print_reg 14
              @ [ alu op 14 13 (r 15) ]
              @ print_reg 14
              @ [ alu op 14 15 (r 13) ]
              @ print_reg 14)
            all_binops
        @ [ mov 16 (r 13) ]
        @ print_reg 16
        (* words: aligned, unaligned and overlapping, raw values stored *)
        @ [ store Rtl.Word 12 4 (r 13); mov 16 (word_at 12 4) ]
        @ print_reg 16
        @ [ store Rtl.Word 12 6 (r 15); mov 16 (word_at 12 4) ]
        @ print_reg 16
        @ [ mov 16 (word_at 12 6) ]
        @ print_reg 16
        (* bytes: 255, 256 and -1 truncate to one byte each *)
        @ [
            mov 17 (Rtl.Imm 255);
            store Rtl.Byte 12 9 (r 17);
            mov 17 (Rtl.Imm 256);
            store Rtl.Byte 12 10 (r 17);
            mov 17 (Rtl.Imm (-1));
            store Rtl.Byte 12 11 (r 17);
          ]
        @ List.concat_map
            (fun d -> mov 16 (byte_at 12 d) :: print_reg 16)
            [ 9; 10; 11 ]
        @ [ mov 16 (word_at 12 8) ]
        @ print_reg 16
        @ [ mov 18 (Rtl.Imm 0) ]);
      (* a counted loop: [cmp r, imm] fused into a branch, both ways *)
      (fun l ->
        [
          alu Rtl.Add 18 18 (Rtl.Imm 1);
          Rtl.Cmp (r 18, Rtl.Imm 5);
          Rtl.Branch (Rtl.Lt, l.(1));
        ]);
      (* [cmp r, r] fused into a branch: untaken, then taken *)
      (fun l -> [ Rtl.Cmp (r 18, r 13); Rtl.Branch (Rtl.Ge, l.(4)) ]);
      (fun l -> [ Rtl.Cmp (r 18, r 18); Rtl.Branch (Rtl.Eq, l.(4)) ]);
      (fun _ -> [ mov 0 (r 14); Rtl.Leave; Rtl.Ret ]);
    ]

(* A program whose one memory access, through [reg + disp] at [addr],
   faults after some output. *)
let faulting_program addr access =
  rtl_program
    [
      (fun _ ->
        [ Rtl.Enter 16; mov 13 (Rtl.Imm 0x1_0000_0041) ]
        @ print_reg 13
        @ [ mov 12 (Rtl.Imm (addr - 2)); access; Rtl.Leave; Rtl.Ret ]);
    ]

let fault_cases =
  let top = 4 * 1024 * 1024 in
  [
    ("word load below data", 0x10, mov 16 (word_at 12 2));
    ("word load past the end", top - 2, mov 16 (word_at 12 2));
    ("byte load past the end", top, mov 16 (byte_at 12 2));
    ("word store below data", 0xffe, store Rtl.Word 12 2 (r 13));
    ("word store past the end", top - 3, store Rtl.Word 12 2 (r 13));
  ]

(* The specialised shape an instruction compiles to, by the engine's own
   patterns; [None] for the generic composition. *)
let specialised_shape (code : Sim.Interp.Decoded.dinstr array) k =
  let open Sim.Interp.Decoded in
  let op_name = function
    | Rtl.Add -> "add"
    | Rtl.Sub -> "sub"
    | Rtl.And -> "and"
    | Rtl.Or -> "or"
    | Rtl.Shl -> "shl"
    | Rtl.Mul | Rtl.Div | Rtl.Rem | Rtl.Xor | Rtl.Shr -> "alu"
  in
  let feeds_branch =
    k + 1 < Array.length code
    && match code.(k + 1) with DBranch _ -> true | _ -> false
  in
  match code.(k) with
  | DMove (DLreg (P _), DReg (P _)) -> Some "mov r, r"
  | DMove (DLreg (P _), DImm _) -> Some "mov r, imm"
  | DMove (DLreg (P _), DMem (Rtl.Word, DBased (P _, _))) -> Some "load word"
  | DMove (DLreg (P _), DMem (Rtl.Byte, DBased (P _, _))) -> Some "load byte"
  | DMove (DLmem (Rtl.Word, DBased (P _, _)), DReg (P _)) -> Some "store word"
  | DBinop (op, DLreg (P _), DReg (P _), DReg (P _)) ->
    Some (op_name op ^ " r, r")
  | DBinop (op, DLreg (P _), DReg (P _), DImm _) ->
    Some (op_name op ^ " r, imm")
  | DCmp (DReg (P _), DImm _) when feeds_branch -> Some "cmp r, imm; branch"
  | DCmp (DReg (P _), DReg (P _)) when feeds_branch -> Some "cmp r, r; branch"
  | _ -> None

let all_shapes =
  [ "mov r, r"; "mov r, imm"; "load word"; "load byte"; "store word";
    "cmp r, imm; branch"; "cmp r, r; branch" ]
  @ List.concat_map
      (fun op -> [ op ^ " r, r"; op ^ " r, imm" ])
      [ "add"; "sub"; "and"; "or"; "shl"; "alu" ]

(* The specialised shapes a run of [prog] executes. *)
let executed_shapes asm prog =
  let img = Sim.Image.build prog in
  let decoded =
    Sim.Interp.decode_cached
      ~symbol:(fun s ->
        match Sim.Image.symbol img s with
        | a -> Some a
        | exception Not_found -> None)
      asm prog
  in
  let at = Hashtbl.create 256 in
  Array.iter
    (fun (f : Sim.Interp.Decoded.dfunc) ->
      Array.iteri
        (fun k a ->
          Option.iter (Hashtbl.replace at a) (specialised_shape f.dcode k))
        f.daddrs)
    decoded.dfuncs;
  let seen = Hashtbl.create 16 in
  ignore
    (Sim.Engine.run
       ~on_fetch:(fun ~addr ~size:_ ->
         Option.iter
           (fun s -> Hashtbl.replace seen s ())
           (Hashtbl.find_opt at addr))
       asm prog);
  List.sort compare (List.of_seq (Hashtbl.to_seq_keys seen))

let test_specialised_shapes () =
  List.iter
    (fun (machine : Machine.t) ->
      let asm = Sim.Asm.assemble machine shapes_program in
      Alcotest.(check (list string))
        (machine.short ^ ": every specialised shape executes")
        (List.sort compare all_shapes)
        (executed_shapes asm shapes_program);
      check_same_run (machine.short ^ " shapes")
        (trace (fun ~on_fetch ->
             Interp_oracle.run ~on_fetch asm shapes_program))
        (trace (fun ~on_fetch -> Sim.Engine.run ~on_fetch asm shapes_program)))
    [ Machine.risc; Machine.cisc ]

let test_specialised_faults () =
  List.iter
    (fun (machine : Machine.t) ->
      List.iter
        (fun (name, addr, access) ->
          let prog = faulting_program addr access in
          let asm = Sim.Asm.assemble machine prog in
          let name = machine.short ^ ": " ^ name in
          let rmsg, rh, rn =
            faulting (fun ~on_fetch -> Interp_oracle.run ~on_fetch asm prog)
          in
          let msg, h, n =
            faulting (fun ~on_fetch -> Sim.Engine.run ~on_fetch asm prog)
          in
          Alcotest.(check string) (name ^ " message") rmsg msg;
          Alcotest.(check int) (name ^ " fetch count") rn n;
          Alcotest.(check int) (name ^ " fetch hash") rh h)
        fault_cases)
    [ Machine.risc; Machine.cisc ]

(* --- word access against the byte-wise oracle -------------------------

   Random loads and stores, words and bytes, at addresses clustered
   where a word access can go wrong: unaligned, straddling a 4 KiB page,
   the last bytes of memory, below [data_base], past the end and within 3
   of [max_int], with values outside the signed 32-bit range.  [Sim.Image] must load the
   same values and raise the same faults as [Image_oracle], end with the
   same memory, and mark every page it wrote dirty: the next
   [build_scratch] of the same size finds the whole memory zeroed. *)

type mem_op = Load of Rtl.width * int | Store of Rtl.width * int * int

(* Five pages, the last one short and not a whole number of words. *)
let mem_size = 0x4ffe
let mem_base = 0x1000

let mem_op_to_string =
  let w = function Rtl.Word -> "w" | Rtl.Byte -> "b" in
  function
  | Load (x, a) -> Printf.sprintf "load%s 0x%x" (w x) a
  | Store (x, a, v) -> Printf.sprintf "store%s 0x%x %d" (w x) a v

let gen_mem_ops =
  let open QCheck.Gen in
  let addr =
    oneof
      [
        int_range (mem_base - 6) (mem_base + 6);
        map2 (fun p d -> (p * 0x1000) + d) (int_range 2 4) (int_range (-5) 4);
        int_range (mem_size - 6) (mem_size + 2);
        int_range mem_base (mem_size - 1);
        oneofl [ -4; -1; 0; 3; 0x7fffffff; min_int ];
        int_range (max_int - 3) max_int;
      ]
  in
  let value =
    oneof
      [
        int_range (-300) 300;
        oneofl
          [ 0x7fffffff; 0x80000000; -0x80000000; -0x80000001; 0xffffffff;
            0x1_0000_0000; 0x1_2345_6789; max_int; min_int ];
        int;
      ]
  in
  let width = oneofl [ Rtl.Word; Rtl.Byte ] in
  list_size (int_range 1 40)
    (frequency
       [
         (2, map2 (fun w a -> Load (w, a)) width addr);
         (3, map3 (fun w a v -> Store (w, a, v)) width addr value);
       ])

let prop_image_matches_oracle =
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map mem_op_to_string ops))
      ~shrink:QCheck.Shrink.list gen_mem_ops
  in
  QCheck.Test.make ~name:"image matches byte-wise oracle" ~count:300 arb
    (fun ops ->
      let empty = { Flow.Prog.globals = []; funcs = [] } in
      let scratch () =
        Sim.Image.build_scratch ~size:mem_size ~data_base:mem_base empty
      in
      let img = scratch () in
      let orc = Image_oracle.build ~size:mem_size ~data_base:mem_base empty in
      let outcome f =
        match f () with
        | v -> Ok v
        | exception Sim.Image.Fault m -> Error m
      in
      let apply op ~load_word ~load_byte ~store_word ~store_byte =
        outcome (fun () ->
            match op with
            | Load (Rtl.Word, a) -> load_word a
            | Load (Rtl.Byte, a) -> load_byte a
            | Store (Rtl.Word, a, v) -> store_word a v; 0
            | Store (Rtl.Byte, a, v) -> store_byte a v; 0)
      in
      let same_ops =
        List.for_all
          (fun op ->
            apply op ~load_word:(Sim.Image.load_word img)
              ~load_byte:(Sim.Image.load_byte img)
              ~store_word:(Sim.Image.store_word img)
              ~store_byte:(Sim.Image.store_byte img)
            = apply op ~load_word:(Image_oracle.load_word orc)
                ~load_byte:(Image_oracle.load_byte orc)
                ~store_word:(Image_oracle.store_word orc)
                ~store_byte:(Image_oracle.store_byte orc))
          ops
      in
      let every_byte p =
        let ok = ref true in
        for a = mem_base to mem_size - 1 do
          if not (p a) then ok := false
        done;
        !ok
      in
      let same_memory =
        every_byte (fun a ->
            Sim.Image.load_byte img a = Image_oracle.load_byte orc a)
      in
      let fresh = scratch () in
      same_ops && same_memory
      && every_byte (fun a -> Sim.Image.load_byte fresh a = 0))

let tests =
  ( "sim",
    [
      Alcotest.test_case "delay slot structure" `Quick test_delay_slot_structure;
      Alcotest.test_case "cisc has no slots" `Quick test_no_slots_on_cisc;
      Alcotest.test_case "addresses monotonic" `Quick test_addresses_monotonic;
      Alcotest.test_case "functions disjoint" `Quick test_functions_disjoint;
      Alcotest.test_case "slot filling works" `Quick test_slot_fill_effectiveness;
      Alcotest.test_case "image layout" `Quick test_image_layout;
      Alcotest.test_case "image word roundtrip" `Quick test_image_word_roundtrip;
      Alcotest.test_case "exit code" `Quick test_exit_code;
      Alcotest.test_case "entry is a transfer" `Quick test_entry_is_a_transfer;
      Alcotest.test_case "exit builtin" `Quick test_exit_builtin;
      Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
      Alcotest.test_case "getchar eof" `Quick test_getchar_eof;
      Alcotest.test_case "instruction classes" `Quick test_counts_track_classes;
      Alcotest.test_case "fetch callback" `Quick test_fetch_callback;
      Alcotest.test_case "delay slot semantics" `Quick test_delay_slot_semantics;
      Alcotest.test_case "engines match reference" `Slow
        test_engine_matches_reference;
      Alcotest.test_case "engines match on timeout" `Quick
        test_engine_matches_on_timeout;
      Alcotest.test_case "engines match on fault" `Quick
        test_engine_matches_on_fault;
      QCheck_alcotest.to_alcotest prop_engines_agree_on_random;
      Alcotest.test_case "bank feed: paper matrix" `Slow
        test_bank_feed_paper_matrix;
      Alcotest.test_case "bank feed: gen seeds" `Slow test_bank_feed_gen_seeds;
      Alcotest.test_case "bank feed: mixed bank" `Slow test_bank_feed_mixed;
      Alcotest.test_case "bank feed: timeouts" `Quick test_bank_feed_timeouts;
      Alcotest.test_case "bank feed: exclusive with on_fetch" `Quick
        test_bank_feed_exclusive;
      Alcotest.test_case "specialised shapes match reference" `Quick
        test_specialised_shapes;
      Alcotest.test_case "specialised faults match reference" `Quick
        test_specialised_faults;
      QCheck_alcotest.to_alcotest prop_image_matches_oracle;
    ] )
