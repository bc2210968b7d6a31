(* Register allocation: structural postconditions plus semantic checks via
   execution (including forced spilling). *)

open Ir
open Flow

let no_virtuals f =
  Array.for_all
    (fun (b : Func.block) ->
      List.for_all
        (fun i ->
          Reg.Set.for_all
            (fun r -> not (Reg.is_virt r))
            (Reg.Set.union (Rtl.uses i) (Rtl.defs i)))
        b.instrs)
    (Func.blocks f)

let alloc src machine =
  let prog =
    Opt.Driver.compile { Opt.Driver.default_options with level = Simple }
      machine src
  in
  Option.get (Prog.find_func prog "main")

(* A source with more simultaneously-live values than there are allocatable
   registers (20), forcing spills. *)
let many_live_src =
  let n = 26 in
  let decls =
    String.concat ", " (List.init n (fun i -> Printf.sprintf "x%d" i))
  in
  let inits =
    String.concat "\n"
      (List.init n (fun i -> Printf.sprintf "x%d = getchar();" i))
  in
  let uses =
    String.concat " + " (List.init n (fun i -> Printf.sprintf "x%d" i))
  in
  Printf.sprintf
    "int main() { int %s; int s; %s s = %s; putchar('0' + s %% 10); \
     putchar(10); return 0; }"
    decls inits uses

let test_no_virtuals_remain () =
  List.iter
    (fun machine ->
      let f = alloc many_live_src machine in
      Alcotest.(check bool)
        (machine.Machine.short ^ " fully allocated")
        true (no_virtuals f))
    [ Machine.cisc; Machine.risc ]

let test_spill_semantics () =
  (* 26 getchar() values live at once: with 20 allocatable registers some
     must spill; the sum must still be right. *)
  let input = String.init 26 (fun i -> Char.chr (i + 1)) in
  let expected_sum = 26 * 27 / 2 in
  let expected =
    Printf.sprintf "%c\n" (Char.chr (Char.code '0' + (expected_sum mod 10)))
  in
  let out, _ = Helpers.run_all_levels ~input many_live_src in
  Alcotest.(check string) "spilled sum" expected out

let test_callee_save_respected () =
  (* A value live across calls must survive them: the callee clobbers all
     caller-save registers by convention. *)
  let src =
    {|
int id(int x) { return x; }
int main() {
  int a, b, c;
  a = id(1); b = id(2); c = id(3);
  /* a, b live across the later calls */
  putchar('0' + a + b + c);
  putchar('\n');
  return 0;
}
|}
  in
  let out, _ = Helpers.run_all_levels src in
  Alcotest.(check string) "live across calls" "6\n" out

let test_frame_grows_for_spills () =
  let f = alloc many_live_src Machine.cisc in
  (match (Func.block f 0).instrs with
  | Rtl.Enter n :: _ ->
    Alcotest.(check bool) "frame covers spill slots" true (n >= 8)
  | _ -> Alcotest.fail "entry must start with Enter");
  Check.assert_ok f

let test_recursion_deep () =
  (* Recursive calls exercise callee-save save/restore chains. *)
  let src =
    {|
int sum(int n) { if (n == 0) return 0; return n + sum(n - 1); }
int main() {
  int s;
  s = sum(100);
  putchar('0' + s % 10);  /* 5050 -> 0 */
  putchar('0' + s / 1000);
  putchar('\n');
  return 0;
}
|}
  in
  let out, _ = Helpers.run_all_levels src in
  Alcotest.(check string) "deep recursion" "05\n" out

let test_allocate_off_keeps_virtuals () =
  (* The driver option exists for inspecting pre-allocation RTL. *)
  let prog =
    Opt.Driver.compile
      { Opt.Driver.default_options with allocate = false }
      Machine.risc "int main() { int a; a = getchar(); return a + 2; }"
  in
  let f = Option.get (Prog.find_func prog "main") in
  let has_virt =
    Array.exists
      (fun (b : Func.block) ->
        List.exists
          (fun i ->
            Reg.Set.exists Reg.is_virt
              (Reg.Set.union (Rtl.uses i) (Rtl.defs i)))
          b.instrs)
      (Func.blocks f)
  in
  Alcotest.(check bool) "virtuals remain with allocate=false" true has_virt

(* --- Against the allocator this one replaced --- *)

(* [f] with a register supply of its own at the same next index, so two
   allocations of one input draw the same spill temporaries. *)
let fork f =
  Func.make ~name:(Func.name f) ~blocks:(Func.blocks f) ~lsupply:(Func.lsupply f)
    ~vsupply:(Reg.Supply.create_from (Reg.Supply.next_index (Func.vsupply f)))

let oracle_virtuals (og : Regalloc_oracle.graph) =
  Hashtbl.fold (fun r _ acc -> if Reg.is_virt r then r :: acc else acc) og.adj []
  |> List.sort Reg.compare

let set_string s = String.concat " " (List.map Reg.to_string (Reg.Set.elements s))

(* Every round of [Opt.Regalloc] against [Regalloc_oracle] on the same
   input: the same virtuals, interference sets, colors and spills.  The
   rounds advance through the oracle's spill rewrite.  Returns the rounds
   taken. *)
let check_rounds ?(unspillable = Reg.Set.empty) f =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) (Func.name f) in
  let slots = Hashtbl.create 16 in
  let slot_of r =
    match Hashtbl.find_opt slots r with
    | Some s -> s
    | None ->
      let s = -4 * (Hashtbl.length slots + 1) in
      Hashtbl.replace slots r s;
      s
  in
  let rec go f unspillable round =
    let g = Opt.Regalloc.build_graph f in
    let og = Regalloc_oracle.build_graph f in
    let virtuals = oracle_virtuals og in
    if not (List.equal Reg.equal virtuals (Opt.Regalloc.virtuals g)) then
      fail "round %d: virtuals differ" round;
    List.iter
      (fun r ->
        let want = Regalloc_oracle.adj_of og r in
        let got = Opt.Regalloc.interference g r in
        if not (Reg.Set.equal want got) then
          fail "round %d: %s interferes with {%s}, oracle {%s}" round
            (Reg.to_string r) (set_string got) (set_string want))
      virtuals;
    let c = Opt.Regalloc.color_graph g ~unspillable in
    let oc = Regalloc_oracle.color_graph og ~unspillable in
    List.iter
      (fun r ->
        let want =
          match Hashtbl.find oc r with
          | Regalloc_oracle.Colored i -> Some i
          | Spilled -> None
        in
        if Opt.Regalloc.color c r <> want then
          fail "round %d: %s colored differently" round (Reg.to_string r))
      virtuals;
    let spilled = Opt.Regalloc.spilled c in
    let ospilled =
      Hashtbl.fold
        (fun r a acc -> if a = Regalloc_oracle.Spilled then Reg.Set.add r acc else acc)
        oc Reg.Set.empty
    in
    if not (Reg.Set.equal spilled ospilled) then
      fail "round %d: spilled {%s}, oracle {%s}" round (set_string spilled)
        (set_string ospilled);
    if Reg.Set.is_empty spilled then round + 1
    else
      let f, temps = Regalloc_oracle.rewrite_spills f spilled slot_of in
      go f (Reg.Set.union unspillable temps) (round + 1)
  in
  go f unspillable 0

let check_against_oracle machine f =
  let rounds = check_rounds f in
  Alcotest.(check string)
    (Func.name f ^ ": allocated function")
    (Func.to_string (Regalloc_oracle.run machine (fork f)))
    (Func.to_string (Opt.Regalloc.run machine (fork f)));
  rounds

(* Regalloc's input: the driver's output with allocation off (the
   displacement pass after it only attaches an encoding plan). *)
let regalloc_inputs level machine src =
  (Opt.Driver.compile
     { Opt.Driver.default_options with level; allocate = false }
     machine src)
    .Prog.funcs

let test_matches_oracle () =
  let sources =
    List.map (fun (b : Programs.Suite.benchmark) -> b.source) Programs.Suite.all
    @ List.init 40 (fun seed ->
          Harness.Gen.to_c (Harness.Gen.generate (Random.State.make [| seed |])))
  in
  let funcs = ref 0 and spilling = ref 0 in
  List.iter
    (fun src ->
      List.iter
        (fun level ->
          List.iter
            (fun machine ->
              List.iter
                (fun f ->
                  incr funcs;
                  if check_against_oracle machine f > 1 then incr spilling)
                (regalloc_inputs level machine src))
            Helpers.machines)
        Helpers.levels)
    sources;
  Printf.printf "%d functions, %d of them spill\n" !funcs !spilling;
  Alcotest.(check bool) "some function spills" true (!spilling > 0)

(* --- Pinned shapes --- *)

let spill_events f =
  let log = Telemetry.Log.make Telemetry.Log.Memory in
  ignore (Opt.Regalloc.run ~log Machine.risc f);
  List.filter_map
    (function
      | Telemetry.Log.Regalloc_spill { reg; round; _ } -> Some (reg, round)
      | _ -> None)
    (Telemetry.Log.events log)

let many_live_main () =
  List.find
    (fun f -> Func.name f = "main")
    (regalloc_inputs Opt.Driver.Simple Machine.risc many_live_src)

(* The 26 getchar() results are live across calls, so only the 8
   callee-save registers can hold them: round 0 spills 17 of them and
   round 1 colors everything. *)
let many_live_spills = List.init 17 (fun i -> (Printf.sprintf "v%d" i, 0))

let test_multi_round_spill () =
  let f = many_live_main () in
  Alcotest.(check int) "rounds, as the oracle takes them" 2 (check_rounds f);
  Alcotest.(check (list (pair string int)))
    "regalloc_spill events" many_live_spills (spill_events (fork f))

let test_all_unspillable () =
  (* With every virtual unspillable, the candidate search falls back to
     all remaining virtuals and so spills what it spills with none. *)
  let f = many_live_main () in
  let g = Opt.Regalloc.build_graph f in
  let all = Reg.Set.of_list (Opt.Regalloc.virtuals g) in
  let spilled unspillable =
    set_string (Opt.Regalloc.spilled (Opt.Regalloc.color_graph g ~unspillable))
  in
  Alcotest.(check string) "fallback spills" (spilled Reg.Set.empty) (spilled all);
  Alcotest.(check string) "the 17 of round 0"
    (String.concat " " (List.map fst many_live_spills)) (spilled all);
  ignore (check_rounds ~unspillable:all f)

let hand_func instrs =
  let vsupply = Reg.Supply.create () in
  let lsupply = Label.Supply.create () in
  let v = Array.init 2 (fun _ -> Reg.Supply.fresh vsupply) in
  Func.make ~name:"f"
    ~blocks:[| { Func.label = Label.Supply.fresh lsupply; instrs = instrs v } |]
    ~lsupply ~vsupply

let test_no_virtuals () =
  let f =
    hand_func (fun _ ->
        [ Rtl.Enter 0; Rtl.Move (Lreg Conv.rv, Imm 7); Rtl.Leave; Rtl.Ret ])
  in
  let g = Opt.Regalloc.build_graph f in
  Alcotest.(check int) "no virtuals" 0 (List.length (Opt.Regalloc.virtuals g));
  Alcotest.(check bool) "nothing spills" true
    (Reg.Set.is_empty (Opt.Regalloc.spilled (Opt.Regalloc.color_graph g ~unspillable:Reg.Set.empty)));
  Alcotest.(check string) "unchanged" (Func.to_string f)
    (Func.to_string (Opt.Regalloc.run Machine.risc f));
  ignore (check_against_oracle Machine.risc f)

let test_move_partner_color () =
  (* r0 is live throughout, so neither virtual may take color 0.  v1 is
     colored first and takes the first free color, 1; v0's partners
     hold 3 (r3) and 1 (v1), and the earlier one in allocatable order
     wins.  The move between them becomes a self-move and goes. *)
  let v0 = Reg.Virt 0 and v1 = Reg.Virt 1 in
  let f =
    hand_func (fun v ->
        [
          Rtl.Enter 0;
          Rtl.Move (Lreg Conv.rv, Imm 7);
          Rtl.Move (Lreg v.(0), Reg (Reg.Phys 3));
          Rtl.Move (Lreg v.(1), Reg v.(0));
          Rtl.Move (Lmem (Word, Based (Conv.fp, -4)), Reg v.(1));
          Rtl.Leave;
          Rtl.Ret;
        ])
  in
  let c =
    Opt.Regalloc.color_graph (Opt.Regalloc.build_graph f)
      ~unspillable:Reg.Set.empty
  in
  Alcotest.(check (option int)) "v1" (Some 1) (Opt.Regalloc.color c v1);
  Alcotest.(check (option int)) "v0 takes v1's color" (Some 1)
    (Opt.Regalloc.color c v0);
  Alcotest.(check string) "allocated"
    "f:\nL0:\n  ENTER 0;\n  r0=7;\n  r1=r3;\n  W[r20-4]=r1;\n  LEAVE;\n  PC=RT;"
    (Func.to_string (Opt.Regalloc.run Machine.risc f));
  ignore (check_against_oracle Machine.risc f)

let tests =
  ( "regalloc",
    [
      Alcotest.test_case "no virtuals remain" `Quick test_no_virtuals_remain;
      Alcotest.test_case "spill semantics" `Quick test_spill_semantics;
      Alcotest.test_case "callee-save respected" `Quick test_callee_save_respected;
      Alcotest.test_case "frame grows for spills" `Quick test_frame_grows_for_spills;
      Alcotest.test_case "deep recursion" `Quick test_recursion_deep;
      Alcotest.test_case "allocate=false" `Quick test_allocate_off_keeps_virtuals;
      Alcotest.test_case "regalloc matches the oracle" `Quick test_matches_oracle;
      Alcotest.test_case "multi-round spill" `Quick test_multi_round_spill;
      Alcotest.test_case "all-unspillable fallback" `Quick test_all_unspillable;
      Alcotest.test_case "no virtuals" `Quick test_no_virtuals;
      Alcotest.test_case "move takes its partner's color" `Quick test_move_partner_color;
    ] )
