(* Shortest-path machinery, the JUMPS algorithm (including the paper's
   Figure 1 and Figure 2 situations) and the LOOPS variant. *)

open Ir
open Flow

let build = Test_flow.build

let num_ujumps f =
  List.length (Replication.Jumps.uncond_jumps f)

(* --- Shortest paths --- *)

let test_shortest_path_basic () =
  (* 0 -(br)-> 2 | 1; 1 -> 3; 2 -> 3; 3 ret.  Block sizes differ. *)
  let f =
    build [| (1, Test_flow.Br 2); (5, Test_flow.Jmp 3); (1, Test_flow.Fall); (1, Test_flow.Return) |]
  in
  let g = Cfg.make f in
  let sp = Replication.Shortest_path.create f g in
  (match Replication.Shortest_path.path sp ~src:0 ~dst:3 with
  | Some p ->
    (* Cheaper through block 2 (1 RTL + terminator) than block 1 (5 + jump). *)
    Alcotest.(check (list int)) "route" [ 0; 2 ] p.blocks
  | None -> Alcotest.fail "path must exist");
  (match Replication.Shortest_path.path sp ~src:3 ~dst:0 with
  | None -> ()
  | Some _ -> Alcotest.fail "no path backwards from the return block")

let random_shape = Test_flow.random_shape

(* Every (src, dst) pair of [f]: the lazy solver behind [create]/[path]
   against the Floyd–Warshall oracle.  Distances and the chosen block
   sequences: both reconstruct canonically, so not just the costs but the
   replication decisions must be identical. *)
let lazy_matches_oracle f =
  let g = Cfg.make f in
  let oracle = Shortest_path_oracle.compute f g in
  let sp = Replication.Shortest_path.create f g in
  let n = Cfg.num_blocks g in
  let ok = ref true in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if
        Shortest_path_oracle.path oracle ~src ~dst
        <> Replication.Shortest_path.path sp ~src ~dst
      then ok := false
    done
  done;
  !ok

let prop_dijkstra_agrees =
  QCheck.Test.make ~name:"Warshall and Dijkstra agree" ~count:150
    Test_flow.arb_shape (fun shape -> lazy_matches_oracle (build shape))

let prop_lazy_matches_oracle_on_gen_cfgs =
  (* The lazy per-source solver behind [create]/[path] against the
     Floyd–Warshall oracle, on control-flow graphs of real generated
     programs (the fuzzer's C subset, compiled at Loops) rather than
     synthetic shapes — the block-size and branch-shape distribution the
     JUMPS pass actually queries. *)
  QCheck.Test.make ~name:"lazy solver equals Floyd-Warshall on generated CFGs"
    ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = Harness.Gen.generate (Random.State.make [| seed |]) in
      match
        Opt.Driver.compile
          { Opt.Driver.default_options with level = Opt.Driver.Loops }
          Machine.risc (Harness.Gen.to_c p)
      with
      | exception _ -> QCheck.assume_fail ()
      | prog -> List.for_all lazy_matches_oracle prog.Flow.Prog.funcs)

let prop_path_valid =
  QCheck.Test.make ~name:"paths follow edges and sum block sizes" ~count:150
    Test_flow.arb_shape (fun shape ->
      let f = build shape in
      let g = Cfg.make f in
      let sp = Replication.Shortest_path.create f g in
      let n = Cfg.num_blocks g in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          match Replication.Shortest_path.path sp ~src ~dst with
          | None -> ()
          | Some p ->
            (* starts at src *)
            (match p.blocks with
            | s :: _ -> if s <> src then ok := false
            | [] -> ok := false);
            (* consecutive blocks are CFG edges; last block reaches dst *)
            let rec walk = function
              | [ last ] -> if not (List.mem dst (Cfg.succs g last)) then ok := false
              | x :: (y :: _ as rest) ->
                if not (List.mem y (Cfg.succs g x)) then ok := false;
                walk rest
              | [] -> ()
            in
            walk p.blocks;
            let cost =
              List.fold_left
                (fun acc b -> acc + Func.block_size (Func.block f b))
                0 p.blocks
            in
            if cost <> p.cost then ok := false
        done
      done;
      !ok)

(* --- JUMPS on hand-built control flow --- *)

let run_jumps ?(config = Replication.Jumps.default_config) f =
  Replication.Jumps.run config f

let test_jumps_removes_simple_jump () =
  (* if/else join: jump over the else part. *)
  let f =
    build
      [|
        (1, Test_flow.Br 2);
        (2, Test_flow.Jmp 3) (* then part: jump over else *);
        (2, Test_flow.Fall) (* else part *);
        (1, Test_flow.Return) (* join + return *);
      |]
  in
  let before = num_ujumps f in
  let f', changed = run_jumps f in
  Alcotest.(check bool) "changed" true changed;
  Alcotest.(check int) "one jump before" 1 before;
  Alcotest.(check int) "no jumps after" 0 (num_ujumps f');
  Check.assert_ok f';
  (* The replicated path ends in a return (favoring returns) or falls
     through; either way the graph stays reducible. *)
  let g = Cfg.make f' in
  Alcotest.(check bool) "reducible" true (Loops.is_reducible g (Dom.compute g))

let test_jumps_figure1 () =
  (* Figure 1: a jump into a block followed by a natural loop; replicating
     without the whole loop would create a second entry.  Layout:
     0: branch to 2 (the jump source path) / falls to 1
     1: jump to 3 (the unconditional jump to replace)
     2: falls into loop head 3
     3: loop header, branches to 5 (exit)
     4: loop body, jumps back to 3
     5: return *)
  let f =
    build
      [|
        (1, Test_flow.Br 2);
        (1, Test_flow.Jmp 3);
        (2, Test_flow.Fall);
        (1, Test_flow.Br 5);
        (2, Test_flow.Jmp 3);
        (1, Test_flow.Return);
      |]
  in
  let f', changed = run_jumps f in
  Check.assert_ok f';
  Alcotest.(check bool) "changed" true changed;
  let g = Cfg.make f' in
  Alcotest.(check bool) "still reducible" true
    (Loops.is_reducible g (Dom.compute g));
  Alcotest.(check int) "jump replaced" 0
    (List.length
       (List.filter
          (fun (bl, _) -> Label.equal bl (Func.blocks f).(1).label)
          (Replication.Jumps.uncond_jumps f')))

let test_jumps_rollback_on_irreducible () =
  (* A jump whose every candidate replication would make the graph
     irreducible must be left in place when allow_irreducible is false.
     Jump from outside into the *middle* of a loop (unstructured loop). *)
  let f =
    build
      [|
        (1, Test_flow.Br 3) (* entry: branch to loop head, fall to jump *);
        (1, Test_flow.Jmp 4) (* the awkward jump into the loop body *);
        (1, Test_flow.Return) (* padding return *);
        (1, Test_flow.Br 2) (* loop header: exit to 2 *);
        (1, Test_flow.Jmp 3) (* loop body/latch *);
        (1, Test_flow.Return);
      |]
  in
  let f', _ = run_jumps f in
  Check.assert_ok f';
  let g = Cfg.make f' in
  Alcotest.(check bool) "result reducible" true
    (Loops.is_reducible g (Dom.compute g))

let test_jumps_size_cap () =
  let f =
    build
      [| (1, Test_flow.Br 2); (2, Test_flow.Jmp 3); (2, Test_flow.Fall); (1, Test_flow.Return) |]
  in
  let config = { Replication.Jumps.default_config with size_cap = 1 } in
  let f', changed = Replication.Jumps.run config f in
  Alcotest.(check bool) "no change under tiny cap" false changed;
  Alcotest.(check int) "jump kept" (num_ujumps f) (num_ujumps f')

let test_jumps_max_rtls () =
  let f =
    build
      [| (1, Test_flow.Br 2); (2, Test_flow.Jmp 3); (2, Test_flow.Fall); (8, Test_flow.Return) |]
  in
  (* Every candidate sequence costs more than 2 RTLs here. *)
  let config = { Replication.Jumps.default_config with max_rtls = Some 2 } in
  let f', changed = Replication.Jumps.run config f in
  Alcotest.(check bool) "capped out" false changed;
  Alcotest.(check int) "jump kept" (num_ujumps f) (num_ujumps f')

let test_jumps_infinite_loop_kept () =
  (* An infinite loop's jump has no replacement (paper §5.2). *)
  let f = build [| (1, Test_flow.Fall); (1, Test_flow.Jmp 1); (1, Test_flow.Return) |] in
  let f', changed = run_jumps f in
  Alcotest.(check bool) "self-loop untouched" false changed;
  Alcotest.(check int) "jump kept" 1 (num_ujumps f')

let test_jumps_indirect_terminal () =
  (* The section-6 extension: a replication sequence may end with an
     indirect jump.  Here every path from the jump target runs through an
     Ijump, so without the extension the jump is irreplaceable. *)
  let lsupply = Label.Supply.create () in
  let vsupply = Reg.Supply.create () in
  let l = Array.init 6 (fun _ -> Label.Supply.fresh lsupply) in
  let mov k = Rtl.Move (Rtl.Lreg (Reg.Virt k), Imm k) in
  let blocks =
    [|
      { Func.label = l.(0);
        instrs = [ Rtl.Enter 8; Rtl.Cmp (Reg (Reg.Virt 9), Imm 0); Rtl.Branch (Ne, l.(2)) ] };
      { Func.label = l.(1); instrs = [ mov 1; Rtl.Jump l.(3) ] };
      { Func.label = l.(2); instrs = [ mov 2; Rtl.Leave; Rtl.Ret ] };
      { Func.label = l.(3); instrs = [ mov 3 ] };
      { Func.label = l.(4); instrs = [ mov 4; Rtl.Ijump (Reg.Virt 8, [| l.(2); l.(5) |]) ] };
      { Func.label = l.(5); instrs = [ mov 5; Rtl.Leave; Rtl.Ret ] };
    |]
  in
  let f = Func.make ~name:"ind" ~blocks ~lsupply ~vsupply in
  Check.assert_ok f;
  let off = { Replication.Jumps.default_config with replicate_indirect = false } in
  let _, changed_off = Replication.Jumps.run off f in
  Alcotest.(check bool) "blocked without the extension" false changed_off;
  let f', changed_on = run_jumps f in
  Alcotest.(check bool) "replaced with the extension" true changed_on;
  Check.assert_ok f';
  Alcotest.(check int) "jump gone" 0 (num_ujumps f');
  (* Two Ijumps now exist (original + copy), sharing the same table. *)
  let ijumps =
    Array.fold_left
      (fun n (b : Func.block) ->
        n
        + List.length
            (List.filter
               (function Rtl.Ijump _ -> true | _ -> false)
               b.instrs))
      0 (Func.blocks f')
  in
  Alcotest.(check int) "indirect jump copied" 2 ijumps

let test_jumps_figure2_overlap_repair () =
  (* Figure 2: replication initiated from inside a loop.  Block 3's jump to
     the header is replaced by a copy; block 2's conditional branch to the
     copied header is redirected to the copy so no partially overlapping
     loop appears. *)
  let f =
    build
      [|
        (1, Test_flow.Fall) (* 0 entry *);
        (2, Test_flow.Br 4) (* 1 loop header; exit to 4 *);
        (1, Test_flow.Br 1) (* 2 branches back to the header *);
        (1, Test_flow.Jmp 1) (* 3 latch: the jump to replace *);
        (1, Test_flow.Return) (* 4 *);
      |]
  in
  let header_label = (Func.blocks f).(1).label in
  let f', changed = run_jumps f in
  Alcotest.(check bool) "changed" true changed;
  Check.assert_ok f';
  let g = Cfg.make f' in
  Alcotest.(check bool) "reducible" true (Loops.is_reducible g (Dom.compute g));
  (* Block 2 (identified by its label) must now branch to a copy, not to
     the original header. *)
  let b2_label = (Func.blocks f).(2).label in
  let b2 = Func.block f' (Func.index_of_label f' b2_label) in
  (match Func.terminator b2 with
  | Some (Rtl.Branch (_, l)) ->
    Alcotest.(check bool) "branch redirected to the copy" false
      (Label.equal l header_label)
  | _ -> Alcotest.fail "block 2 should still end in a conditional branch")

(* --- LOOPS --- *)

let test_loops_bottom_jump () =
  (* while shape: header test at top, body jumps back (Table 1's simple
     cousin).  The bottom jump must become a reversed conditional branch. *)
  let f = Test_flow.loop_func () in
  let f', changed = Replication.Loops_rep.run f in
  Check.assert_ok f';
  Alcotest.(check bool) "changed" true changed;
  Alcotest.(check int) "no jumps left" 0 (num_ujumps f');
  (* The former latch now ends in a conditional branch back into the loop. *)
  let latch = (Func.blocks f').(2) in
  (match Func.terminator latch with
  | Some (Rtl.Branch (_, _)) -> ()
  | _ -> Alcotest.fail "latch should end in a conditional branch");
  let g = Cfg.make f' in
  Alcotest.(check bool) "reducible" true (Loops.is_reducible g (Dom.compute g))

let test_loops_entry_jump () =
  (* for shape: jump over the body to the test at the bottom. *)
  let f =
    build
      [|
        (1, Test_flow.Jmp 2) (* entry jumps to the test *);
        (2, Test_flow.Fall) (* body *);
        (1, Test_flow.Br 1) (* bottom test, branch back to body *);
        (1, Test_flow.Return);
      |]
  in
  let f', changed = Replication.Loops_rep.run f in
  Check.assert_ok f';
  Alcotest.(check bool) "changed" true changed;
  Alcotest.(check int) "entry jump replaced" 0 (num_ujumps f');
  let g = Cfg.make f' in
  Alcotest.(check bool) "reducible" true (Loops.is_reducible g (Dom.compute g))

let test_loops_leaves_non_loop_jumps () =
  (* The if/else join jump is not a loop jump; LOOPS must not touch it. *)
  let f =
    build
      [| (1, Test_flow.Br 2); (2, Test_flow.Jmp 3); (2, Test_flow.Fall); (1, Test_flow.Return) |]
  in
  let _, changed = Replication.Loops_rep.run f in
  Alcotest.(check bool) "untouched" false changed

(* Replication must never break structural invariants on random graphs. *)
let prop_jumps_preserves_wellformedness =
  QCheck.Test.make ~name:"JUMPS keeps functions well-formed and reducible-checked"
    ~count:120 Test_flow.arb_shape (fun shape ->
      let f = build shape in
      (* Only run when the input is well-formed and reducible to begin
         with (the generator can produce branches to the entry etc.). *)
      QCheck.assume (Check.errors f = []);
      let g = Cfg.make f in
      let dom = Dom.compute g in
      QCheck.assume (Loops.is_reducible g dom);
      let f', _ = run_jumps f in
      Check.errors f' = []
      &&
      let g' = Cfg.make f' in
      Loops.is_reducible g' (Dom.compute g'))

let tests =
  ( "replication",
    [
      Alcotest.test_case "shortest path basics" `Quick test_shortest_path_basic;
      QCheck_alcotest.to_alcotest prop_dijkstra_agrees;
      QCheck_alcotest.to_alcotest prop_lazy_matches_oracle_on_gen_cfgs;
      QCheck_alcotest.to_alcotest prop_path_valid;
      Alcotest.test_case "jumps removes if/else jump" `Quick test_jumps_removes_simple_jump;
      Alcotest.test_case "jumps: Figure 1 loop completion" `Quick test_jumps_figure1;
      Alcotest.test_case "jumps: Figure 2 overlap repair" `Quick test_jumps_figure2_overlap_repair;
      Alcotest.test_case "jumps: reducibility rollback" `Quick test_jumps_rollback_on_irreducible;
      Alcotest.test_case "jumps: size cap" `Quick test_jumps_size_cap;
      Alcotest.test_case "jumps: max_rtls cap" `Quick test_jumps_max_rtls;
      Alcotest.test_case "jumps: infinite loop kept" `Quick test_jumps_infinite_loop_kept;
      Alcotest.test_case "jumps: indirect terminal (par.6)" `Quick test_jumps_indirect_terminal;
      Alcotest.test_case "loops: bottom jump" `Quick test_loops_bottom_jump;
      Alcotest.test_case "loops: entry jump" `Quick test_loops_entry_jump;
      Alcotest.test_case "loops: leaves non-loop jumps" `Quick test_loops_leaves_non_loop_jumps;
      QCheck_alcotest.to_alcotest prop_jumps_preserves_wellformedness;
    ] )
