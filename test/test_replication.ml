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

(* --- Analyses carried across a splice --- *)

(* What the splice checks exercised. *)
type coverage = {
  mutable attempts : int;
  mutable completed : int;  (** step-3 loop-completed sequences *)
  mutable repaired : int;  (** splices with a step-5 repair *)
  mutable irreducible : int;  (** splices that left an irreducible graph *)
}

let coverage () = { attempts = 0; completed = 0; repaired = 0; irreducible = 0 }

(* Two solvers over [n] blocks agree on the distance from each of
   [sources] to every block and on the path to every [stride]-th. *)
let same_paths ?(stride = 1) a b n sources =
  let module Sp = Replication.Shortest_path in
  let ok = ref true in
  List.iter
    (fun src ->
      for dst = 0 to n - 1 do
        if
          Sp.distance a ~src ~dst <> Sp.distance b ~src ~dst
          || (dst mod stride = 0 && Sp.path a ~src ~dst <> Sp.path b ~src ~dst)
        then ok := false
      done)
    sources;
  !ok

(* Splice [seq] after block [b] of [f], whose CFG, dominators and
   shortest-path solver are given, and hold every edited analysis to a
   fresh build of the spliced function: the CFG, the dominators, the
   loop list built from them (order included), the shortest paths and,
   when [f] is reducible, the region's reducibility verdict.  Paths are
   compared from every block, or with [few_paths] from the first copy and
   the first few jump targets (the sources JUMPS queries), with every
   eighth path reconstructed. *)
let check_splice cov ?(completed = false) ?(few_paths = false) ?repair_loop f
    g dom sp ~b ~seq ~mode =
  match Replication.Replicate.splice ?repair_loop f ~after:b ~seq ~mode with
  | exception Invalid_argument _ -> true
  | f', edit ->
    let added = Array.length edit.copy_of in
    let rewritten = edit.rewritten in
    let g' = Cfg.splice g f' ~after:b ~added ~rewritten in
    let dom', region =
      Dom.splice dom g' ~after:b ~copy_of:edit.copy_of ~rewritten
    in
    let fg = Cfg.make f' in
    let fdom = Dom.compute fg in
    let reducible' = Loops.is_reducible fg fdom in
    cov.attempts <- cov.attempts + 1;
    if completed then cov.completed <- cov.completed + 1;
    if rewritten <> [] then cov.repaired <- cov.repaired + 1;
    if not reducible' then cov.irreducible <- cov.irreducible + 1;
    Helpers.same_cfg fg g' && Dom.equal fdom dom'
    && Helpers.same_loops (Loops.natural_loops fg fdom)
         (Loops.natural_loops g' dom')
    && same_paths
         ~stride:(if few_paths then 8 else 1)
         (Replication.Shortest_path.create f' fg)
         (Replication.Shortest_path.splice sp f' g' ~after:b ~added)
         (Func.num_blocks f')
         (if few_paths then
            (b + 1)
            :: List.filteri
                 (fun i _ -> i < 3)
                 (List.map
                    (fun (_, tl) -> Func.index_of_label f' tl)
                    (Replication.Jumps.uncond_jumps f'))
          else List.init (Func.num_blocks f') Fun.id)
    && ((not (Loops.is_reducible g dom))
       ||
       match region with
       | None -> reducible'
       | Some region -> Loops.region_reducible dom' region = reducible')

(* Every splice the JUMPS pass could attempt on [f]: every candidate of
   every unconditional jump, loop-completed variants and repairs
   included, whether or not it would be kept. *)
let check_attempts ?few_paths cov config f =
  let an = Jumps_oracle.analyze f in
  List.for_all
    (fun (bl, tl) ->
      let b = Func.index_of_label f bl and t = Func.index_of_label f tl in
      t = b
      || List.for_all
           (fun (c : Jumps_oracle.candidate) ->
             c.seq = []
             || check_splice cov ?few_paths ~completed:c.completed
                  ?repair_loop:(Jumps_oracle.repair_scope an.loops b c.seq)
                  f an.g an.dom an.sp ~b ~seq:c.seq ~mode:c.mode)
           (Jumps_oracle.candidates_for config f an.g an.sp an.loops ~b ~t))
    (Replication.Jumps.uncond_jumps f)

(* Splices of random sequences (starting at the jump's target, so that
   the copies mirror edges of the graph) on random shapes, with and
   without a repair loop. *)
let prop_random_splices =
  QCheck.Test.make ~name:"edited analyses equal rebuilt ones: random splices"
    ~count:400
    QCheck.(pair Test_flow.arb_shape (int_bound 1_000_000))
    (fun (shape, seed) ->
      let f = build shape in
      QCheck.assume (Check.errors f = []);
      let rng = Random.State.make [| seed |] in
      let g = Cfg.make f in
      let dom = Dom.compute g in
      let loops = Loops.natural_loops g dom in
      let sp = Replication.Shortest_path.create f g in
      let n = Func.num_blocks f in
      let cov = coverage () in
      List.for_all
        (fun (bl, tl) ->
          let b = Func.index_of_label f bl and t = Func.index_of_label f tl in
          let seq =
            t
            :: List.init (Random.State.int rng 4) (fun _ ->
                   Random.State.int rng n)
          in
          let last = List.nth seq (List.length seq - 1) in
          let mode =
            match Func.terminator (Func.block f last) with
            | Some Rtl.Ret when b + 1 >= n || Random.State.bool rng ->
              Some Replication.Replicate.Ends_with_return
            | _ ->
              if b + 1 < n then
                Some (Replication.Replicate.Fallthrough_to (b + 1))
              else None
          in
          let repair_loop =
            match
              List.filter
                (fun (l : Loops.loop) -> Loops.Int_set.mem b l.body)
                loops
            with
            | l :: _ when Random.State.bool rng -> Some l
            | _ -> None
          in
          match mode with
          | None -> true
          | Some mode -> check_splice cov ?repair_loop f g dom sp ~b ~seq ~mode)
        (Replication.Jumps.uncond_jumps f))

let prop_attempted_splices =
  QCheck.Test.make ~name:"edited analyses equal rebuilt ones: JUMPS attempts"
    ~count:300 Test_flow.arb_shape (fun shape ->
      let f = build shape in
      QCheck.assume (Check.errors f = []);
      check_attempts (coverage ()) Replication.Jumps.default_config f)

let prop_attempted_splices_on_gen_cfgs =
  QCheck.Test.make
    ~name:"edited analyses equal rebuilt ones: JUMPS attempts on generated CFGs"
    ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = Harness.Gen.generate (Random.State.make [| seed |]) in
      match
        Opt.Driver.compile
          { Opt.Driver.default_options with level = Opt.Driver.Loops }
          Machine.risc (Harness.Gen.to_c p)
      with
      | exception _ -> QCheck.assume_fail ()
      | prog ->
        List.for_all
          (check_attempts ~few_paths:true (coverage ())
             Replication.Jumps.default_config)
          prog.Flow.Prog.funcs)

(* --- Production against the rebuild-everything oracle --- *)

let replication_events log =
  List.filter_map
    (function
      | (Telemetry.Log.Replication_applied _ | Replication_rolled_back _) as ev
        ->
        Some
          (Telemetry.Json.to_string
             (Telemetry.Log.event_to_json ~seq:0 ~t_ms:0. ev))
      | _ -> None)
    (Telemetry.Log.events log)

let fork = Helpers.fork

(* [Jumps.run] and the oracle's on one input: the same function, change
   flag and decision events.  The production run draws from [f]'s own
   label supply. *)
let run_both config f =
  let log = Telemetry.Log.make Telemetry.Log.Memory in
  let olog = Telemetry.Log.make Telemetry.Log.Memory in
  let of', ochanged = Jumps_oracle.run ~log:olog config (fork f) in
  let f', changed = Replication.Jumps.run ~log config f in
  let agree =
    changed = ochanged
    && Func.to_string f' = Func.to_string of'
    && replication_events log = replication_events olog
  in
  (f', changed, agree)

let explain_agrees ?config f =
  Replication.Jumps.explain ?config (fork f)
  = Jumps_oracle.explain ?config (fork f)

(* Random shapes (irreducible ones included), every size cap from none
   to tight, with and without the reducibility check. *)
let prop_run_matches_oracle =
  QCheck.Test.make ~name:"JUMPS equals the rebuild-everything oracle"
    ~count:400
    QCheck.(triple Test_flow.arb_shape (int_bound 40) bool)
    (fun (shape, cap, allow_irreducible) ->
      let f = build shape in
      QCheck.assume (Check.errors f = []);
      let config =
        {
          Replication.Jumps.default_config with
          size_cap = (if cap = 0 then 100_000 else cap);
          allow_irreducible;
        }
      in
      let agree = explain_agrees ~config f in
      let _, _, same = run_both config f in
      agree && same)

(* Every replication the optimizer runs over the corpus and Gen seeds
   0-39, at JUMPS on both machines, is run by the oracle too and must
   agree; every attempt on the first input of each function is checked
   as in [check_attempts]; and [explain] agrees on every final function
   at all six configurations.  The pass boundary quarantines a replication
   that raises, so disagreements are collected and reported at the
   end. *)
let test_pipeline_matches_oracle () =
  let cov = coverage () in
  let runs = ref 0 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (name, src) ->
      let prog = Frontend.Codegen.compile_source src in
      List.iter
        (fun (machine : Machine.t) ->
          List.iter
            (fun level ->
              let opts = { Opt.Driver.default_options with level } in
              List.iter
                (fun func ->
                  let size_cap = max 2000 (8 * Func.num_instrs func) in
                  let first = ref true in
                  let replicate ?(allow_irreducible = false) f =
                    let config =
                      {
                        Replication.Jumps.default_config with
                        allow_irreducible;
                        size_cap;
                      }
                    in
                    if
                      !first
                      && not
                           (check_attempts ~few_paths:true cov config (fork f))
                    then
                      fail "%s/%s: an edited analysis differs" name
                        (Func.name f);
                    first := false;
                    let f', changed, agree = run_both config f in
                    incr runs;
                    if not agree then
                      fail "%s/%s/%s: JUMPS differs from the oracle" name
                        machine.short (Func.name f);
                    (f', changed)
                  in
                  let replicate =
                    if level = Opt.Driver.Jumps then replicate
                    else fun ?allow_irreducible f ->
                      ignore allow_irreducible;
                      Opt.Driver.(
                        match level with
                        | Loops -> Replication.Loops_rep.run f
                        | Simple | Jumps -> (f, false))
                  in
                  let final =
                    Opt.Driver.optimize_func_with ~replicate opts machine func
                  in
                  if not (explain_agrees final) then
                    fail "%s/%s/%s: explain differs from the oracle" name
                      (Opt.Driver.level_name level) (Func.name func))
                prog.funcs)
            Helpers.levels)
        Helpers.machines)
    Helpers.corpus_and_gen;
  Printf.printf
    "%d runs; %d attempts checked (%d loop-completed, %d repaired, %d \
     irreducible)\n"
    !runs cov.attempts cov.completed cov.repaired cov.irreducible;
  Alcotest.(check (list string)) "disagreements" [] (List.rev !failures);
  Alcotest.(check bool) "loop-completed splices checked" true
    (cov.completed > 0);
  Alcotest.(check bool) "repaired splices checked" true (cov.repaired > 0);
  Alcotest.(check bool) "irreducible splices checked" true (cov.irreducible > 0)

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
      QCheck_alcotest.to_alcotest prop_random_splices;
      QCheck_alcotest.to_alcotest prop_attempted_splices;
      QCheck_alcotest.to_alcotest prop_attempted_splices_on_gen_cfgs;
      QCheck_alcotest.to_alcotest prop_run_matches_oracle;
      Alcotest.test_case "pipeline replication equals the oracle" `Slow
        test_pipeline_matches_oracle;
    ] )
