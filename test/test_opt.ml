(* Optimization pass unit tests: each pass on hand-built RTL, checking both
   the transformation and structural invariants. *)

open Ir
open Flow

let build = Test_flow.build

let v n = Reg.Virt n

let mk ?(start = 0) name instr_blocks =
  let lsupply = Label.Supply.create () in
  let vsupply = Reg.Supply.create_from 100 in
  let labels =
    Array.init (List.length instr_blocks) (fun _ -> Label.Supply.fresh lsupply)
  in
  let blocks =
    Array.of_list
      (List.mapi
         (fun i mk_instrs ->
           { Func.label = labels.(i); instrs = mk_instrs labels })
         instr_blocks)
  in
  ignore start;
  Func.make ~name ~blocks ~lsupply ~vsupply

(* --- Branch chaining --- *)

let test_chain_jump_to_jump () =
  let f =
    mk "chain"
      [
        (fun l -> [ Rtl.Enter 8; Rtl.Jump l.(1) ]);
        (fun l -> [ Rtl.Jump l.(2) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let f', changed = Opt.Branch_chain.run f in
  Alcotest.(check bool) "changed" true changed;
  (* The entry's jump must now go to the return block directly — and then
     jump-to-next elimination applies on a second run after unreachable
     removal. *)
  (match Func.terminator (Func.block f' 0) with
  | Some (Rtl.Jump l) ->
    Alcotest.(check bool) "retargeted" true
      (Label.equal l (Func.block f' 2).label)
  | _ -> Alcotest.fail "entry should still end in a jump");
  Check.assert_ok f'

let test_jump_to_next_removed () =
  let f =
    mk "j2n"
      [
        (fun l -> [ Rtl.Enter 8; Rtl.Jump l.(1) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let f', changed = Opt.Branch_chain.run f in
  Alcotest.(check bool) "changed" true changed;
  Alcotest.(check bool) "jump gone" true (Func.terminator (Func.block f' 0) = None)

let test_branch_over_jump () =
  (* The regression that broke the benchmark suite: Branch c L2; Jump L3;
     L2: ... must become Branch !c L3 with the jump block emptied. *)
  let f =
    mk "boj"
      [
        (fun l ->
          [ Rtl.Enter 8; Rtl.Cmp (Reg (v 0), Imm 0); Rtl.Branch (Ne, l.(2)) ]);
        (fun l -> [ Rtl.Jump l.(3) ]);
        (fun _ -> [ Rtl.Move (Lreg (v 1), Imm 1) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let f', changed = Opt.Branch_chain.run f in
  Alcotest.(check bool) "changed" true changed;
  (match Func.terminator (Func.block f' 0) with
  | Some (Rtl.Branch (Eq, l)) ->
    Alcotest.(check bool) "reversed to the jump target" true
      (Label.equal l (Func.block f' 3).label)
  | _ -> Alcotest.fail "entry should end in a reversed branch");
  Alcotest.(check int) "jump block emptied" 0
    (List.length (Func.block f' 1).instrs);
  Check.assert_ok f'

(* --- Unreachable code elimination --- *)

let test_unreachable () =
  let f =
    mk "unreach"
      [
        (fun l -> [ Rtl.Enter 8; Rtl.Jump l.(2) ]);
        (fun _ -> [ Rtl.Move (Lreg (v 0), Imm 9) ]) (* dead *);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let f', changed = Opt.Unreachable.run f in
  Alcotest.(check bool) "changed" true changed;
  Alcotest.(check int) "blocks" 2 (Func.num_blocks f');
  Check.assert_ok f'

let test_unreachable_keeps_ijump_targets () =
  let f =
    mk "ijump"
      [
        (fun l ->
          [ Rtl.Enter 8; Rtl.Ijump (v 0, [| l.(1); l.(2) |]) ]);
        (fun l -> [ Rtl.Jump l.(3) ]);
        (fun _ -> [ Rtl.Move (Lreg (v 1), Imm 1) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let f', changed = Opt.Unreachable.run f in
  Alcotest.(check bool) "nothing removed" false changed;
  Alcotest.(check int) "all blocks kept" 4 (Func.num_blocks f')

(* --- Reorder --- *)

let test_reorder_enables_fallthrough () =
  (* 0 jumps to 2; 1 unreachable-ish tail; moving 2 after 0 removes the
     jump on the next branch-chain run. *)
  let f =
    mk "reorder"
      [
        (fun l -> [ Rtl.Enter 8; Rtl.Jump l.(2) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
        (fun l -> [ Rtl.Move (Lreg (v 0), Imm 1); Rtl.Jump l.(1) ]);
      ]
  in
  let f', _ = Opt.Reorder.run f in
  Check.assert_ok f';
  (* After reorder, block after entry should be the old block 2. *)
  Alcotest.(check bool) "old block 2 follows entry" true
    (Label.equal (Func.block f' 1).label (Func.block f 2).label)

(* --- Constant folding --- *)

let test_constfold_arith () =
  let f =
    mk "cf"
      [
        (fun _ ->
          [
            Rtl.Enter 8;
            Rtl.Binop (Add, Lreg (v 0), Imm 2, Imm 3);
            Rtl.Binop (Mul, Lreg (v 1), Reg (v 1), Imm 8);
            Rtl.Binop (Add, Lreg (v 2), Reg (v 2), Imm 0);
            Rtl.Leave;
            Rtl.Ret;
          ]);
      ]
  in
  let f', changed = Opt.Constfold.run Ir.Machine.risc f in
  Alcotest.(check bool) "changed" true changed;
  let instrs = (Func.block f' 0).instrs in
  Alcotest.(check bool) "2+3 folded" true
    (List.exists (fun i -> i = Rtl.Move (Lreg (v 0), Imm 5)) instrs);
  Alcotest.(check bool) "*8 became shift" true
    (List.exists
       (fun i -> i = Rtl.Binop (Shl, Lreg (v 1), Reg (v 1), Imm 3))
       instrs)

let test_constfold_branch () =
  let f =
    mk "cfb"
      [
        (fun l ->
          [
            Rtl.Enter 8;
            Rtl.Move (Lreg (v 0), Imm 5);
            Rtl.Cmp (Reg (v 0), Imm 3);
            Rtl.Branch (Gt, l.(2));
          ]);
        (fun _ -> [ Rtl.Move (Lreg (v 1), Imm 0) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let f', changed = Opt.Constfold.run Ir.Machine.risc f in
  Alcotest.(check bool) "changed" true changed;
  (match Func.terminator (Func.block f' 0) with
  | Some (Rtl.Jump _) -> ()
  | _ -> Alcotest.fail "always-taken branch must become a jump");
  (* Never-taken case. *)
  let g =
    mk "cfb2"
      [
        (fun l ->
          [
            Rtl.Enter 8;
            Rtl.Move (Lreg (v 0), Imm 1);
            Rtl.Cmp (Reg (v 0), Imm 3);
            Rtl.Branch (Gt, l.(2));
          ]);
        (fun _ -> [ Rtl.Move (Lreg (v 1), Imm 0) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let g', _ = Opt.Constfold.run Ir.Machine.risc g in
  Alcotest.(check bool) "never-taken branch dropped" true
    (Func.terminator (Func.block g' 0) = None)

(* --- Dead variable elimination --- *)

let test_deadvars () =
  let f =
    mk "dv"
      [
        (fun _ ->
          [
            Rtl.Enter 8;
            Rtl.Move (Lreg (v 0), Imm 1) (* dead *);
            Rtl.Move (Lreg (v 1), Imm 2);
            Rtl.Move (Lreg (v 1), Reg (v 1)) (* self move *);
            Rtl.Cmp (Reg (v 1), Imm 0) (* dead cc: no branch follows *);
            Rtl.Move (Lreg Ir.Conv.rv, Reg (v 1));
            Rtl.Leave;
            Rtl.Ret;
          ]);
      ]
  in
  let f', changed = Opt.Deadvars.run f in
  Alcotest.(check bool) "changed" true changed;
  Alcotest.(check int) "only live instrs left" 5
    (List.length (Func.block f' 0).instrs)

let test_deadvars_keeps_live_cmp () =
  let f =
    mk "dvc"
      [
        (fun l ->
          [ Rtl.Enter 8; Rtl.Cmp (Reg (v 0), Imm 0); Rtl.Branch (Ne, l.(1)) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let f', _ = Opt.Deadvars.run f in
  Alcotest.(check int) "cmp kept" 3 (List.length (Func.block f' 0).instrs)

(* The registers of a liveness set, for comparison. *)
let regs_of set = Liveness.Regs.fold List.cons set []

(* The facts [Liveness.compute f] returns (kept or adopted) equal a
   fresh solve's. *)
let liveness_is_fresh f =
  let kept = Liveness.compute f and fresh = Liveness.compute (Helpers.fork f) in
  List.for_all
    (fun i ->
      regs_of (Liveness.live_in kept i) = regs_of (Liveness.live_in fresh i)
      && regs_of (Liveness.live_out kept i) = regs_of (Liveness.live_out fresh i))
    (List.init (Func.num_blocks f) Fun.id)

(* One run removes the whole dead chain: [left] RTLs per block stay, a
   second run finds nothing, and the facts left for the next pass are
   the output's own. *)
let check_deadvars_one_run name blocks ~left =
  let f', changed = Opt.Deadvars.run (mk name blocks) in
  Alcotest.(check bool) (name ^ ": changed") true changed;
  Alcotest.(check (list int)) (name ^ ": RTLs left") left
    (Array.to_list (Array.map Func.block_size (Func.blocks f')));
  Alcotest.(check bool) (name ^ ": second run") false (snd (Opt.Deadvars.run f'));
  Alcotest.(check bool) (name ^ ": facts") true (liveness_is_fresh f')

let test_deadvars_chain_in_block () =
  check_deadvars_one_run "dv-block"
    [
      (fun _ ->
        [
          Rtl.Enter 8;
          Rtl.Move (Lreg (v 0), Imm 1);
          Rtl.Binop (Add, Lreg (v 1), Reg (v 0), Imm 1);
          Rtl.Binop (Mul, Lreg (v 2), Reg (v 1), Imm 2);
          Rtl.Move (Lreg Ir.Conv.rv, Imm 0);
          Rtl.Leave;
          Rtl.Ret;
        ]);
    ]
    ~left:[ 4 ]

let test_deadvars_chain_across_blocks () =
  (* v1 dies with block 1's multiply: block 1's live-in changes, so the
     run solves again and sweeps block 0. *)
  check_deadvars_one_run "dv-blocks"
    [
      (fun _ ->
        [
          Rtl.Enter 8;
          Rtl.Move (Lreg (v 0), Imm 1);
          Rtl.Binop (Add, Lreg (v 1), Reg (v 0), Imm 1);
        ]);
      (fun _ ->
        [
          Rtl.Binop (Mul, Lreg (v 2), Reg (v 1), Imm 2);
          Rtl.Move (Lreg Ir.Conv.rv, Imm 0);
          Rtl.Leave;
          Rtl.Ret;
        ]);
    ]
    ~left:[ 1; 3 ]

let test_deadvars_read_only_around_loop () =
  (* v0 is live around the loop only for the dead v1 := v0 + 1: after the
     sweep the loop block's live-in is unchanged (v0 still flows in from
     its own exit), but nothing reads v0 any more, so v0 := 5 goes too. *)
  check_deadvars_one_run "dv-loop"
    [
      (fun _ ->
        [ Rtl.Enter 8; Rtl.Move (Lreg (v 0), Imm 5); Rtl.Move (Lreg (v 3), Imm 0) ]);
      (fun l ->
        [
          Rtl.Binop (Add, Lreg (v 1), Reg (v 0), Imm 1);
          Rtl.Binop (Add, Lreg (v 3), Reg (v 3), Imm 1);
          Rtl.Cmp (Reg (v 3), Imm 10);
          Rtl.Branch (Lt, l.(1));
        ]);
      (fun _ -> [ Rtl.Move (Lreg Ir.Conv.rv, Reg (v 3)); Rtl.Leave; Rtl.Ret ]);
    ]
    ~left:[ 2; 3; 3 ]

(* --- CSE --- *)

let test_cse_local () =
  let f =
    mk "cse"
      [
        (fun _ ->
          [
            Rtl.Enter 8;
            Rtl.Binop (Add, Lreg (v 0), Reg (v 10), Reg (v 11));
            Rtl.Binop (Add, Lreg (v 1), Reg (v 10), Reg (v 11));
            Rtl.Leave;
            Rtl.Ret;
          ]);
      ]
  in
  let f', changed = Opt.Cse.run f in
  Alcotest.(check bool) "changed" true changed;
  Alcotest.(check bool) "second add is a move" true
    (List.exists
       (fun i -> i = Rtl.Move (Lreg (v 1), Reg (v 0)))
       (Func.block f' 0).instrs)

let test_cse_invalidation () =
  let f =
    mk "csei"
      [
        (fun _ ->
          [
            Rtl.Enter 8;
            Rtl.Binop (Add, Lreg (v 0), Reg (v 10), Reg (v 11));
            Rtl.Move (Lreg (v 10), Imm 7) (* operand redefined *);
            Rtl.Binop (Add, Lreg (v 1), Reg (v 10), Reg (v 11));
            Rtl.Leave;
            Rtl.Ret;
          ]);
      ]
  in
  let f', changed = Opt.Cse.run f in
  Alcotest.(check bool) "no stale reuse" false
    (List.exists
       (fun i -> i = Rtl.Move (Lreg (v 1), Reg (v 0)))
       (Func.block f' 0).instrs);
  ignore changed

let test_cse_loads_killed_by_store () =
  let f =
    mk "csel"
      [
        (fun _ ->
          [
            Rtl.Enter 8;
            Rtl.Move (Lreg (v 0), Mem (Word, Abs ("g", 0)));
            Rtl.Move (Lmem (Word, Abs ("h", 0)), Reg (v 0));
            Rtl.Move (Lreg (v 1), Mem (Word, Abs ("g", 0)));
            Rtl.Leave;
            Rtl.Ret;
          ]);
      ]
  in
  let f', _ = Opt.Cse.run f in
  Alcotest.(check bool) "reload kept after store" true
    (List.exists
       (fun i -> i = Rtl.Move (Lreg (v 1), Mem (Word, Abs ("g", 0))))
       (Func.block f' 0).instrs)

let test_cse_ebb () =
  (* The expression is available in a single-predecessor successor. *)
  let f =
    mk "cseebb"
      [
        (fun _ ->
          [ Rtl.Enter 8; Rtl.Binop (Add, Lreg (v 0), Reg (v 10), Imm 1) ]);
        (fun _ ->
          [
            Rtl.Binop (Add, Lreg (v 1), Reg (v 10), Imm 1);
            Rtl.Leave;
            Rtl.Ret;
          ]);
      ]
  in
  let f', changed = Opt.Cse.run f in
  Alcotest.(check bool) "changed across EBB" true changed;
  Alcotest.(check bool) "replaced by move" true
    (List.exists
       (fun i -> i = Rtl.Move (Lreg (v 1), Reg (v 0)))
       (Func.block f' 1).instrs)

let test_cse_ebb_chain () =
  (* 0 -> 1 -> 2 is a chain of single-predecessor blocks: block 2 reuses
     what blocks 0 and 1 computed.  Block 3 is block 1's sibling (both
     hang off block 0): it inherits block 0's entries but never block 1's,
     and block 1 never sees block 3's. *)
  let add d k = Rtl.Binop (Add, Lreg (v d), Reg (v 10), Imm k) in
  let f =
    mk "cseebb3"
      [
        (fun l ->
          [
            Rtl.Enter 8;
            add 0 1;
            Rtl.Cmp (Reg (v 50), Imm 0);
            Rtl.Branch (Ne, l.(3));
          ]);
        (fun _ -> [ add 1 2 ]);
        (fun l -> [ add 2 1; add 3 2; Rtl.Jump l.(4) ]);
        (fun _ -> [ add 4 2; add 5 1 ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let f', changed = Opt.Cse.run f in
  Alcotest.(check bool) "changed" true changed;
  let instrs b = (Func.block f' b).instrs in
  let move d s = Rtl.Move (Lreg (v d), Reg (v s)) in
  Alcotest.(check bool) "block 1 keeps its add" true
    (List.mem (add 1 2) (instrs 1));
  Alcotest.(check bool) "block 2 reuses block 0's value" true
    (List.mem (move 2 0) (instrs 2));
  Alcotest.(check bool) "block 2 reuses block 1's value" true
    (List.mem (move 3 1) (instrs 2));
  Alcotest.(check bool) "the sibling recomputes block 1's expression" true
    (List.mem (add 4 2) (instrs 3));
  Alcotest.(check bool) "the sibling reuses block 0's value" true
    (List.mem (move 5 0) (instrs 3));
  Check.assert_ok f'

let test_cse_join_blocked () =
  (* At a join the expression is only available on one path: no reuse. *)
  let f =
    build
      [| (1, Test_flow.Br 2); (1, Test_flow.Jmp 3); (1, Test_flow.Fall); (1, Test_flow.Return) |]
  in
  (* add the expression to block 1 and the join 3 *)
  let blocks = Array.copy (Func.blocks f) in
  let expr d = Rtl.Binop (Add, Lreg (v d), Reg (v 50), Imm 3) in
  blocks.(1) <- { (blocks.(1)) with instrs = expr 0 :: blocks.(1).instrs };
  blocks.(3) <- { (blocks.(3)) with instrs = expr 1 :: blocks.(3).instrs };
  let f = Func.with_blocks f blocks in
  let f', _ = Opt.Cse.run f in
  Alcotest.(check bool) "join recomputes" true
    (List.exists (fun i -> i = expr 1) (Func.block f' 3).instrs)

(* --- Global CSE --- *)

let test_gcse_across_join () =
  (* The expression is computed in both arms of a diamond; the join's
     recomputation becomes a move from the saved temp. *)
  let f =
    mk "gcse"
      [
        (fun l ->
          [ Rtl.Enter 8; Rtl.Cmp (Reg (v 50), Imm 0); Rtl.Branch (Ne, l.(2)) ]);
        (fun l ->
          [ Rtl.Binop (Add, Lreg (v 0), Reg (v 10), Imm 4); Rtl.Jump l.(3) ]);
        (fun _ -> [ Rtl.Binop (Add, Lreg (v 1), Reg (v 10), Imm 4) ]);
        (fun _ ->
          [
            Rtl.Binop (Add, Lreg (v 2), Reg (v 10), Imm 4);
            Rtl.Move (Lreg Ir.Conv.rv, Reg (v 2));
            Rtl.Leave;
            Rtl.Ret;
          ]);
      ]
  in
  let f', changed = Opt.Gcse.run f in
  Alcotest.(check bool) "changed" true changed;
  Check.assert_ok f';
  let join = Func.block f' 3 in
  Alcotest.(check bool) "join takes a move" true
    (List.exists
       (fun i ->
         match i with Rtl.Move (Lreg d, Reg _) -> Reg.equal d (v 2) | _ -> false)
       join.instrs);
  Alcotest.(check bool) "join no longer recomputes" false
    (List.exists
       (fun i ->
         match i with Rtl.Binop (Add, Lreg d, _, _) -> Reg.equal d (v 2) | _ -> false)
       join.instrs)

let test_gcse_partial_path_blocked () =
  (* Available on only one path: the join must recompute. *)
  let f =
    mk "gcse2"
      [
        (fun l ->
          [ Rtl.Enter 8; Rtl.Cmp (Reg (v 50), Imm 0); Rtl.Branch (Ne, l.(2)) ]);
        (fun l ->
          [ Rtl.Binop (Add, Lreg (v 0), Reg (v 10), Imm 4); Rtl.Jump l.(3) ]);
        (fun _ -> [ Rtl.Move (Lreg (v 1), Imm 0) ]);
        (fun _ ->
          [
            Rtl.Binop (Add, Lreg (v 2), Reg (v 10), Imm 4);
            Rtl.Leave;
            Rtl.Ret;
          ]);
      ]
  in
  let f', _ = Opt.Gcse.run f in
  Alcotest.(check bool) "join still computes" true
    (List.exists
       (fun i ->
         match i with Rtl.Binop (Add, Lreg d, _, _) -> Reg.equal d (v 2) | _ -> false)
       (Func.block f' 3).instrs)

let test_gcse_two_address_self () =
  (* d = d + 1 never makes its own expression available. *)
  let f =
    mk "gcse3"
      [
        (fun _ ->
          [
            Rtl.Enter 8;
            Rtl.Binop (Add, Lreg (v 0), Reg (v 0), Imm 1);
            Rtl.Binop (Add, Lreg (v 0), Reg (v 0), Imm 1);
            Rtl.Move (Lreg Ir.Conv.rv, Reg (v 0));
            Rtl.Leave;
            Rtl.Ret;
          ]);
      ]
  in
  let f', changed = Opt.Gcse.run f in
  Alcotest.(check bool) "no bogus reuse" false changed;
  Alcotest.(check int) "both increments kept" 2
    (List.length
       (List.filter
          (fun i -> match i with Rtl.Binop (Add, _, _, _) -> true | _ -> false)
          (Func.block f' 0).instrs))

let test_gcse_temp_order () =
  (* Two expressions available at a join, the [Sub] computed first.  Fresh
     temporaries are drawn in key order — [Add] before [Sub] — so the
     [Add]'s temporary is v100 and the [Sub]'s v101. *)
  let sub d = Rtl.Binop (Sub, Lreg (v d), Reg (v 10), Imm 1) in
  let add d = Rtl.Binop (Add, Lreg (v d), Reg (v 10), Imm 4) in
  let f =
    mk "gcse4"
      [
        (fun l ->
          [
            Rtl.Enter 8;
            sub 0;
            add 1;
            Rtl.Cmp (Reg (v 50), Imm 0);
            Rtl.Branch (Ne, l.(2));
          ]);
        (fun l -> [ Rtl.Move (Lreg (v 5), Imm 0); Rtl.Jump l.(2) ]);
        (fun _ -> [ sub 2; add 3; Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let f', changed = Opt.Gcse.run f in
  Alcotest.(check bool) "changed" true changed;
  Check.assert_ok f';
  let move d s = Rtl.Move (Lreg d, Reg s) in
  Alcotest.(check (list string)) "saved at the generating sites"
    (List.map Rtl.instr_to_string
       [
         Rtl.Enter 8; sub 0; move (v 101) (v 0); add 1; move (v 100) (v 1);
         Rtl.Cmp (Reg (v 50), Imm 0);
       ])
    (List.map Rtl.instr_to_string
       (List.filteri (fun i _ -> i < 6) (Func.block f' 0).instrs));
  Alcotest.(check (list string)) "taken at the join"
    (List.map Rtl.instr_to_string
       [ move (v 2) (v 101); move (v 3) (v 100); Rtl.Leave; Rtl.Ret ])
    (List.map Rtl.instr_to_string (Func.block f' 2).instrs)

(* --- LICM --- *)

let licm_loop () =
  (* 0: entry; 1: header (test); 2: body with invariant op; 3: exit *)
  mk "licm"
    [
      (fun _ -> [ Rtl.Enter 8; Rtl.Move (Lreg (v 0), Imm 0) ]);
      (fun l -> [ Rtl.Cmp (Reg (v 0), Imm 10); Rtl.Branch (Ge, l.(3)) ]);
      (fun l ->
        [
          Rtl.Binop (Mul, Lreg (v 1), Reg (v 20), Reg (v 21)) (* invariant *);
          Rtl.Binop (Add, Lreg (v 0), Reg (v 0), Reg (v 1));
          Rtl.Jump l.(1);
        ]);
      (fun _ -> [ Rtl.Move (Lreg Ir.Conv.rv, Reg (v 0)); Rtl.Leave; Rtl.Ret ]);
    ]

let test_licm_hoists () =
  let f = licm_loop () in
  let f', changed = Opt.Licm.run f in
  Alcotest.(check bool) "changed" true changed;
  Check.assert_ok f';
  (* The multiply must now be outside the loop: exactly one occurrence, in a
     block that is not part of any loop. *)
  let g = Cfg.make f' in
  let dom = Dom.compute g in
  let loops = Loops.natural_loops g dom in
  let in_loop bi = List.exists (fun l -> Loops.Int_set.mem bi l.Loops.body) loops in
  let found = ref [] in
  Array.iteri
    (fun bi (b : Func.block) ->
      List.iter
        (fun i ->
          match i with
          | Rtl.Binop (Mul, Lreg d, _, _) when Reg.equal d (v 1) ->
            found := bi :: !found
          | _ -> ())
        b.instrs)
    (Func.blocks f');
  (match !found with
  | [ bi ] -> Alcotest.(check bool) "hoisted out of the loop" false (in_loop bi)
  | _ -> Alcotest.fail "expected exactly one multiply");
  (* Semantics sanity via liveness-preserving structure. *)
  Alcotest.(check bool) "reducible" true (Loops.is_reducible g dom)

let test_licm_leaves_variant () =
  (* v1 depends on the induction variable: must stay in the loop. *)
  let f =
    mk "licm2"
      [
        (fun _ -> [ Rtl.Enter 8; Rtl.Move (Lreg (v 0), Imm 0) ]);
        (fun l -> [ Rtl.Cmp (Reg (v 0), Imm 10); Rtl.Branch (Ge, l.(3)) ]);
        (fun l ->
          [
            Rtl.Binop (Mul, Lreg (v 1), Reg (v 0), Reg (v 21));
            Rtl.Binop (Add, Lreg (v 0), Reg (v 0), Imm 1);
            Rtl.Jump l.(1);
          ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let f', changed = Opt.Licm.run f in
  ignore changed;
  let g = Cfg.make f' in
  let dom = Dom.compute g in
  let loops = Loops.natural_loops g dom in
  let in_loop bi = List.exists (fun l -> Loops.Int_set.mem bi l.Loops.body) loops in
  Array.iteri
    (fun bi (b : Func.block) ->
      List.iter
        (fun i ->
          match i with
          | Rtl.Binop (Mul, _, _, _) ->
            Alcotest.(check bool) "variant mul stays in loop" true (in_loop bi)
          | _ -> ())
        b.instrs)
    (Func.blocks f')

let test_licm_no_div_hoist () =
  (* A division guarded by the loop condition must not be hoisted. *)
  let f =
    mk "licmdiv"
      [
        (fun _ -> [ Rtl.Enter 8; Rtl.Move (Lreg (v 0), Imm 0) ]);
        (fun l -> [ Rtl.Cmp (Reg (v 20), Imm 0); Rtl.Branch (Eq, l.(3)) ]);
        (fun l ->
          [
            Rtl.Binop (Div, Lreg (v 1), Reg (v 21), Reg (v 20));
            Rtl.Binop (Add, Lreg (v 0), Reg (v 0), Reg (v 1));
            Rtl.Jump l.(1);
          ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let f', _ = Opt.Licm.run f in
  let g = Cfg.make f' in
  let dom = Dom.compute g in
  let loops = Loops.natural_loops g dom in
  let in_loop bi = List.exists (fun l -> Loops.Int_set.mem bi l.Loops.body) loops in
  Array.iteri
    (fun bi (b : Func.block) ->
      List.iter
        (fun i ->
          match i with
          | Rtl.Binop (Div, _, _, _) ->
            Alcotest.(check bool) "div stays guarded" true (in_loop bi)
          | _ -> ())
        b.instrs)
    (Func.blocks f')

(* --- LICM against the rebuild-every-round oracle --- *)

(* [f] with a label supply of its own at the same next index, so two runs
   over one input draw the same fresh labels. *)
let fork = Helpers.fork

let check_licm_oracle f =
  let f', changed = Opt.Licm.run (fork f) in
  let o', ochanged = Licm_oracle.run (fork f) in
  Alcotest.(check string) (Func.name f ^ ": oracle output") (Func.to_string o')
    (Func.to_string f');
  Alcotest.(check bool) (Func.name f ^ ": oracle change flag") ochanged changed;
  (f', changed)

(* The replication pass of [level] as the fix loop runs it. *)
let replicate_at level f =
  let opts = Opt.Driver.options ~level () in
  match level with
  | Opt.Driver.Simple -> (f, false)
  | Loops -> Replication.Loops_rep.run f
  | Jumps ->
    Replication.Jumps.run
      {
        Replication.Jumps.heuristic = opts.heuristic;
        max_rtls = opts.max_rtls;
        allow_irreducible = false;
        size_cap = max 2000 (8 * Func.num_instrs f);
        replicate_indirect = true;
      }
      f

let run_passes passes f = List.fold_left (fun f pass -> fst (pass f)) f passes

(* The fix loop's input: the driver's prefix, run directly rather than
   through the driver's verifying boundary. *)
let fix_input level machine f =
  run_passes
    [
      Opt.Branch_chain.run; Opt.Unreachable.run; Opt.Reorder.run;
      Opt.Branch_chain.run; replicate_at level; Opt.Unreachable.run;
    ]
    (Opt.Legalize.run machine f)

(* Deadvars' input in the first fixpoint round: the passes up to gcse. *)
let deadvars_input level machine f =
  run_passes
    [ Opt.Isel.run machine; Opt.Cse.run; Opt.Gcse.run ]
    (fix_input level machine f)

(* Licm's input in the first fixpoint round. *)
let licm_input level machine f =
  fst (Opt.Deadvars.run (deadvars_input level machine f))

(* [input level machine] of every function of [sources], at each level,
   for both machines. *)
let pipeline_inputs input sources =
  List.concat_map
    (fun (_, src) ->
      let prog = Frontend.Codegen.compile_source src in
      List.concat_map
        (fun machine ->
          List.concat_map
            (fun level -> List.map (input level machine) prog.Prog.funcs)
            Helpers.levels)
        Helpers.machines)
    sources

let corpus_and_gen_below n =
  List.filteri
    (fun i _ -> i < List.length Programs.Suite.all + n)
    Helpers.corpus_and_gen

(* Every function of the corpus and of Gen seeds 0-9. *)
let licm_inputs = lazy (pipeline_inputs licm_input (corpus_and_gen_below 10))

let test_licm_matches_oracle () =
  let changed =
    List.fold_left
      (fun n f -> if snd (check_licm_oracle f) then n + 1 else n)
      0 (Lazy.force licm_inputs)
  in
  Printf.printf "%d of %d functions hoisted\n" changed
    (List.length (Lazy.force licm_inputs));
  Alcotest.(check bool) "some function hoists" true (changed > 0)

(* --- Deadvars against the single-layer oracle iterated --- *)

(* [Deadvars.run] equals the single-layer pass run until it reports no
   change: the same function and change flag, and the facts it leaves
   for licm are the output's own.  Returns the layers the oracle took. *)
let check_deadvars_oracle f =
  let expect, layers = Deadvars_oracle.fixpoint (fork f) in
  let f', changed = Opt.Deadvars.run f in
  let name = Func.name f in
  Alcotest.(check string) (name ^ ": oracle fixpoint") (Func.to_string expect)
    (Func.to_string f');
  Alcotest.(check bool) (name ^ ": change flag") (layers > 0) changed;
  Alcotest.(check bool) (name ^ ": facts") true (liveness_is_fresh f');
  layers

(* Every function of the corpus and of Gen seeds 0-39 straight out of
   codegen, and at deadvars' first fixpoint round for the corpus and Gen
   seeds 0-9 (each level, both machines). *)
let test_deadvars_matches_oracle () =
  let codegen =
    List.concat_map
      (fun (_, src) -> (Frontend.Codegen.compile_source src).Prog.funcs)
      Helpers.corpus_and_gen
  in
  let inputs =
    codegen @ pipeline_inputs deadvars_input (corpus_and_gen_below 10)
  in
  let layers = List.map check_deadvars_oracle inputs in
  let deep = List.length (List.filter (fun n -> n > 1) layers) in
  Printf.printf "%d functions; %d take the oracle more than one run\n"
    (List.length inputs) deep;
  Alcotest.(check bool) "some chains are deeper than one layer" true (deep > 0)

(* --- Licm's reused liveness against fresh solves --- *)

(* Every answer [live] gives from kept facts for [func] is a fresh
   solve's: in each block, preheaders and stubs included, a register
   outside the block's dirty set is in the kept live-in exactly when it is
   in a fresh solve's.  ([kept_in] raises on a block it has no facts or
   rule for.) *)
let kept_answers_fresh live func =
  let fresh = Liveness.compute (fork func) in
  List.for_all
    (fun i ->
      match Opt.Licm.Live.kept_in live func i with
      | None -> true
      | Some (kept, dirty) ->
        let clean regs =
          List.filter (fun r -> not (Reg.Set.mem r dirty)) (regs_of regs)
        in
        clean kept = clean (Liveness.live_in fresh i))
    (List.init (Func.num_blocks func) Fun.id)

(* After every hoist of [Licm.run f], licm's own reused liveness and a
   second one, solved on [f] and told of each hoist, answer as fresh
   solves do.  The second one solves again after hoist [k] only when
   [resolve k]: with none, it carries every edit, stacked preheaders on
   dirty headers included.  Returns whether all agreed, and the number of
   hoists. *)
let check_reused_liveness ?(resolve = fun _ -> false) f =
  let f = fork f in
  let replay = Opt.Licm.Live.create () in
  Opt.Licm.Live.solve replay f;
  let agree = ref true and hoists = ref 0 in
  let on_hoist ~before loop ~after ~code live =
    incr hoists;
    Opt.Licm.Live.note_hoist replay ~before loop ~after ~code;
    if not (kept_answers_fresh live after && kept_answers_fresh replay after)
    then agree := false;
    if resolve !hoists then Opt.Licm.Live.solve replay after
  in
  ignore (Opt.Licm.run ~on_hoist f);
  (!agree, !hoists)

(* Licm's input in the first fixpoint round, for Gen seeds 10-39 (the
   corpus and seeds 0-9 are [licm_inputs]). *)
let licm_inputs_gen_rest =
  lazy
    (pipeline_inputs licm_input
       (List.filteri
          (fun i _ -> i >= List.length Programs.Suite.all + 10)
          Helpers.corpus_and_gen))

let reuse_inputs =
  lazy (Array.of_list (Lazy.force licm_inputs @ Lazy.force licm_inputs_gen_rest))

(* Whether licm's own liveness, after its last hoist of [f], still holds
   the facts of [f] itself: then no query after a hoist solved again. *)
let licm_solves_only_its_input f =
  let f = fork f in
  let live = ref None in
  let on_hoist ~before:_ _ ~after:_ ~code:_ l = live := Some l in
  ignore (Opt.Licm.run ~on_hoist f);
  match !live with
  | None -> true
  | Some l -> (
    match Opt.Licm.Live.solved l with Some s -> s == f | None -> false)

let test_licm_solves_before_hoists () =
  Array.iter
    (fun f ->
      Alcotest.(check bool) (Func.name f ^ ": no solve after a hoist") true
        (licm_solves_only_its_input f))
    (Lazy.force reuse_inputs)

(* A loop that hoisted nothing is passed over on its header alone; its
   footprint must then still be the one it failed with. *)
let test_licm_skips_unchanged_loops () =
  let skips = ref 0 in
  Array.iter
    (fun f ->
      let on_skip ~recorded func g loop =
        incr skips;
        Alcotest.(check bool) (Func.name f ^ ": footprint unchanged") true
          (Label.Set.equal recorded (Opt.Licm.footprint func g loop))
      in
      ignore (Opt.Licm.run ~on_skip (fork f)))
    (Lazy.force reuse_inputs);
  Printf.printf "%d skips checked\n" !skips;
  Alcotest.(check bool) "some skips" true (!skips > 0)

let test_reused_liveness () =
  let hoists =
    Array.fold_left
      (fun n f ->
        let agree, k = check_reused_liveness f in
        Alcotest.(check bool) (Func.name f ^ ": kept facts are fresh") true agree;
        n + k)
      0 (Lazy.force reuse_inputs)
  in
  Printf.printf "%d hoists checked\n" hoists;
  Alcotest.(check bool) "some hoists" true (hoists > 0)

(* The same over the corpus and Gen seeds 0-39 with the second liveness
   solved again after a random subset of the hoists. *)
let prop_reused_liveness =
  QCheck.Test.make ~name:"licm's reused liveness answers as fresh solves do"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (pick, schedule) ->
      let inputs = Lazy.force reuse_inputs in
      let f = inputs.(pick mod Array.length inputs) in
      fst
        (check_reused_liveness
           ~resolve:(fun k -> (schedule lsr (k mod 20)) land 1 = 1)
           f))

let same_loops = Helpers.same_loops

(* Reverse postorder as a list built at each DFS finish, unreachable
   blocks appended in index order. *)
let reference_rpo g =
  let n = Cfg.num_blocks g in
  let seen = Array.make n false in
  let order = ref [] in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit (Cfg.succs g i);
      order := i :: !order
    end
  in
  visit 0;
  Array.of_list
    (!order @ List.filter (fun i -> not seen.(i)) (List.init n Fun.id))

let test_natural_loops_reference () =
  (let g =
     Cfg.make
       (mk "unreached"
          [
            (fun l -> [ Rtl.Enter 8; Rtl.Jump l.(3) ]);
            (fun l -> [ Rtl.Jump l.(2) ]);
            (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
            (fun l -> [ Rtl.Cmp (Reg (v 0), Imm 0); Rtl.Branch (Eq, l.(2)) ]);
            (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
          ])
   in
   Alcotest.(check (array int)) "unreachable block last" [| 0; 3; 2; 4; 1 |]
     (Cfg.reverse_postorder g));
  List.iter
    (fun f ->
      let g = Cfg.make f in
      Alcotest.(check (array int)) (Func.name f ^ ": reverse postorder")
        (reference_rpo g) (Cfg.reverse_postorder g);
      let dom = Dom.compute g in
      Alcotest.(check bool) (Func.name f ^ ": loops") true
        (same_loops (Licm_oracle.natural_loops g dom) (Loops.natural_loops g dom)))
    (Lazy.force licm_inputs)

(* Insert a preheader on every loop in turn, carrying the updated CFG,
   dominators and loop forest from edit to edit; each must equal a fresh
   build. *)
let test_preheader_updates () =
  let fresh f =
    let g = Cfg.make f in
    let dom = Dom.compute g in
    (g, dom, Loops.innermost_first (Loops.natural_loops g dom))
  in
  let same_cfg = Helpers.same_cfg in
  let edits = ref 0 in
  List.iter
    (fun f ->
      let f = fork f in
      let g, dom, loops = fresh f in
      ignore
        (List.fold_left
           (fun (f, g, dom, loops) i ->
             let loop = List.nth loops i in
             let f', _ = Opt.Licm.insert_preheader f loop in
             let added = Func.num_blocks f' - Func.num_blocks f in
             let header = loop.header in
             let g' = Cfg.insert_preheader g f' ~header ~added in
             let dom' = Dom.insert_preheader dom ~header ~added in
             let loops' = Loops.insert_preheader loops ~loop ~added in
             let fg, fdom, floops = fresh f' in
             let what = Printf.sprintf "%s, loop %d" (Func.name f) i in
             Alcotest.(check bool) (what ^ ": cfg") true (same_cfg fg g');
             Alcotest.(check bool) (what ^ ": dominators") true (Dom.equal fdom dom');
             Alcotest.(check bool) (what ^ ": loops") true (same_loops floops loops');
             incr edits;
             (f', g', dom', loops'))
           (f, g, dom, loops)
           (List.init (List.length loops) Fun.id)))
    (Lazy.force licm_inputs);
  Printf.printf "%d preheader edits\n" !edits;
  Alcotest.(check bool) "some loops" true (!edits > 0)

(* Preheader shapes, each checked against the oracle and the verifier. *)
let licm_shape name blocks =
  Alcotest.(check bool) (name ^ ": reused liveness") true
    (fst (check_reused_liveness (mk name blocks)));
  let f', changed = check_licm_oracle (mk name blocks) in
  Alcotest.(check bool) (name ^ ": changed") true changed;
  Check.assert_ok f';
  f'

let mul_v1 = Rtl.Binop (Mul, Lreg (v 1), Reg (v 20), Reg (v 21))

(* The block of the first instruction satisfying [p], or -1. *)
let block_of f p =
  let found = ref (-1) in
  Array.iteri
    (fun bi (b : Func.block) ->
      if !found < 0 && List.exists p b.instrs then found := bi)
    (Func.blocks f);
  !found

let test_licm_fallthrough_pred () =
  (* The body (block 1) falls into the header from inside the loop and has
     no terminator: it gains a jump over the new preheader. *)
  let f' =
    licm_shape "licm-fall"
      [
        (fun l -> [ Rtl.Enter 8; Rtl.Move (Lreg (v 0), Imm 0); Rtl.Jump l.(2) ]);
        (fun _ -> [ mul_v1; Rtl.Binop (Add, Lreg (v 0), Reg (v 0), Reg (v 1)) ]);
        (fun l -> [ Rtl.Cmp (Reg (v 0), Imm 10); Rtl.Branch (Lt, l.(1)) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  Alcotest.(check int) "one preheader" 5 (Func.num_blocks f');
  Alcotest.(check int) "mul in the preheader" 2
    (block_of f' (Rtl.equal_instr mul_v1));
  match Func.terminator (Func.block f' 1) with
  | Some (Rtl.Jump l) ->
    Alcotest.(check bool) "jumps to the header" true
      (Label.equal l (Func.block f' 3).label)
  | _ -> Alcotest.fail "the fall-through predecessor needs a jump"

let test_licm_branch_pred_stub () =
  (* The same predecessor ends in a conditional branch: a jump-only stub
     goes between it and the preheader. *)
  let f' =
    licm_shape "licm-stub"
      [
        (fun l -> [ Rtl.Enter 8; Rtl.Move (Lreg (v 0), Imm 0); Rtl.Jump l.(2) ]);
        (fun l ->
          [
            mul_v1; Rtl.Binop (Add, Lreg (v 0), Reg (v 0), Reg (v 1));
            Rtl.Cmp (Reg (v 0), Imm 100); Rtl.Branch (Gt, l.(3));
          ]);
        (fun l -> [ Rtl.Cmp (Reg (v 0), Imm 10); Rtl.Branch (Lt, l.(1)) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  Alcotest.(check int) "stub and preheader" 6 (Func.num_blocks f');
  Alcotest.(check int) "mul in the preheader" 3
    (block_of f' (Rtl.equal_instr mul_v1));
  match (Func.block f' 2).instrs with
  | [ Rtl.Jump l ] ->
    Alcotest.(check bool) "stub jumps to the header" true
      (Label.equal l (Func.block f' 4).label)
  | _ -> Alcotest.fail "expected a jump-only stub before the preheader"

let test_licm_ijump_entry () =
  (* An outside indirect jump's table names the header: that entry moves
     to the preheader, the other stays. *)
  let f' =
    licm_shape "licm-ijump"
      [
        (fun l ->
          [
            Rtl.Enter 8; Rtl.Move (Lreg (v 0), Imm 0);
            Rtl.Ijump (v 22, [| l.(1); l.(3) |]);
          ]);
        (fun l -> [ Rtl.Cmp (Reg (v 0), Imm 10); Rtl.Branch (Ge, l.(3)) ]);
        (fun l ->
          [ mul_v1; Rtl.Binop (Add, Lreg (v 0), Reg (v 0), Reg (v 1)); Rtl.Jump l.(1) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let pre = (Func.block f' 1).label in
  Alcotest.(check int) "mul in the preheader" 1
    (block_of f' (Rtl.equal_instr mul_v1));
  match Func.terminator (Func.block f' 0) with
  | Some (Rtl.Ijump (_, [| a; b |])) ->
    Alcotest.(check bool) "entry retargeted" true (Label.equal a pre);
    Alcotest.(check bool) "exit entry kept" true
      (Label.equal b (Func.block f' 4).label)
  | _ -> Alcotest.fail "expected the two-entry indirect jump"

let test_licm_stacked_preheaders () =
  (* v2 := v1 + 5 becomes invariant once v1's definition has left: the
     second hoist stacks a second preheader under the first. *)
  let add_v2 = Rtl.Binop (Add, Lreg (v 2), Reg (v 1), Imm 5) in
  let f' =
    licm_shape "licm-chain"
      [
        (fun _ -> [ Rtl.Enter 8; Rtl.Move (Lreg (v 0), Imm 0) ]);
        (fun l -> [ Rtl.Cmp (Reg (v 0), Imm 10); Rtl.Branch (Ge, l.(3)) ]);
        (fun l ->
          [ mul_v1; add_v2; Rtl.Binop (Add, Lreg (v 0), Reg (v 0), Reg (v 2)); Rtl.Jump l.(1) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  Alcotest.(check int) "two preheaders" 6 (Func.num_blocks f');
  Alcotest.(check int) "mul in the first" 1 (block_of f' (Rtl.equal_instr mul_v1));
  Alcotest.(check int) "add in the second" 2 (block_of f' (Rtl.equal_instr add_v2))

let test_licm_round_cap () =
  (* A chain of 55 invariants, each usable only once the one before has
     left: one hoist per round, and the run stops after 50 rounds. *)
  let chain =
    mul_v1
    :: List.init 54 (fun k ->
           let src = if k = 0 then v 1 else v (k + 29) in
           Rtl.Binop (Add, Lreg (v (k + 30)), Reg src, Imm 1))
  in
  let f' =
    licm_shape "licm-cap"
      [
        (fun _ -> [ Rtl.Enter 8; Rtl.Move (Lreg (v 0), Imm 0) ]);
        (fun l -> [ Rtl.Cmp (Reg (v 0), Imm 10); Rtl.Branch (Ge, l.(3)) ]);
        (fun l ->
          chain
          @ [ Rtl.Binop (Add, Lreg (v 0), Reg (v 0), Reg (v 83)); Rtl.Jump l.(1) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  Alcotest.(check int) "50 preheaders" 54 (Func.num_blocks f')

let test_licm_retry_after_outer_hoist () =
  (* The inner loop {3, 4} cannot move v1 (live into its header) nor v2
     (v1 is defined inside).  The outer loop hoists both v1 definitions,
     which drops the inner loop's failure record; retried, it hoists v2. *)
  let add_v2 = Rtl.Binop (Add, Lreg (v 2), Reg (v 1), Imm 1) in
  let f' =
    licm_shape "licm-retry"
      [
        (fun _ -> [ Rtl.Enter 8; Rtl.Move (Lreg (v 0), Imm 0) ]);
        (fun l -> [ Rtl.Cmp (Reg (v 0), Imm 10); Rtl.Branch (Ge, l.(5)) ]);
        (fun _ -> [ mul_v1; Rtl.Move (Lreg (v 3), Imm 0) ]);
        (fun l ->
          [
            Rtl.Binop (Add, Lreg (v 0), Reg (v 0), Reg (v 1));
            Rtl.Cmp (Reg (v 3), Imm 5); Rtl.Branch (Ge, l.(1));
          ]);
        (fun l ->
          [ mul_v1; add_v2; Rtl.Binop (Add, Lreg (v 3), Reg (v 3), Reg (v 2)); Rtl.Jump l.(3) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let g = Cfg.make f' in
  let loops = Loops.natural_loops g (Dom.compute g) in
  let in_loop bi = List.exists (fun l -> Loops.Int_set.mem bi l.Loops.body) loops in
  Alcotest.(check bool) "v2 left both loops" false
    (in_loop (block_of f' (Rtl.equal_instr add_v2)))

(* --- Strength reduction --- *)

let test_strength_reduction () =
  (* t := i * 12 with i a basic IV becomes an addition chain. *)
  let f =
    mk "sr"
      [
        (fun _ -> [ Rtl.Enter 8; Rtl.Move (Lreg (v 0), Imm 0) ]);
        (fun l -> [ Rtl.Cmp (Reg (v 0), Imm 10); Rtl.Branch (Ge, l.(3)) ]);
        (fun l ->
          [
            Rtl.Binop (Mul, Lreg (v 1), Reg (v 0), Imm 12);
            Rtl.Move (Lmem (Word, Based (Ir.Conv.fp, -8)), Reg (v 1));
            Rtl.Binop (Add, Lreg (v 0), Reg (v 0), Imm 1);
            Rtl.Jump l.(1);
          ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let f', changed = Opt.Strength.run f in
  Alcotest.(check bool) "changed" true changed;
  Check.assert_ok f';
  (* The loop body must no longer contain a multiplication. *)
  let g = Cfg.make f' in
  let dom = Dom.compute g in
  let loops = Loops.natural_loops g dom in
  let in_loop bi = List.exists (fun l -> Loops.Int_set.mem bi l.Loops.body) loops in
  Array.iteri
    (fun bi (b : Func.block) ->
      List.iter
        (fun i ->
          match i with
          | Rtl.Binop (Mul, _, _, _) ->
            Alcotest.(check bool) "mul out of the loop" false (in_loop bi)
          | _ -> ())
        b.instrs)
    (Func.blocks f')

(* --- Isel --- *)

let test_isel_copy_prop () =
  let f =
    mk "iselcp"
      [
        (fun _ ->
          [
            Rtl.Enter 8;
            Rtl.Move (Lreg (v 0), Imm 42);
            Rtl.Cmp (Reg (v 0), Imm 0);
            Rtl.Branch (Ne, Label.of_int 1);
          ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      ]
  in
  (* fix label: block 1's label is the one the supply gave *)
  let blocks = Func.blocks f in
  let b0 = blocks.(0) in
  let target = blocks.(1).label in
  let b0 =
    { b0 with
      instrs =
        List.map
          (fun i -> Rtl.map_labels (fun _ -> target) i)
          b0.instrs
    }
  in
  let f = Func.with_blocks f [| b0; blocks.(1) |] in
  let f', changed = Opt.Isel.run Ir.Machine.cisc f in
  Alcotest.(check bool) "changed" true changed;
  Alcotest.(check bool) "constant propagated into cmp" true
    (List.exists
       (fun i -> i = Rtl.Cmp (Imm 42, Imm 0))
       (Func.block f' 0).instrs)

let test_isel_cisc_fusion () =
  (* load; add; store over the same cell fuses into a memory add. *)
  let m = Rtl.Based (Ir.Conv.fp, -8) in
  let f =
    mk "fuse"
      [
        (fun _ ->
          [
            Rtl.Enter 8;
            Rtl.Move (Lreg (v 0), Mem (Word, m));
            Rtl.Binop (Add, Lreg (v 0), Reg (v 0), Imm 1);
            Rtl.Move (Lmem (Word, m), Reg (v 0));
            Rtl.Leave;
            Rtl.Ret;
          ]);
      ]
  in
  let f', _ = Opt.Isel.run Ir.Machine.cisc f in
  let f', _ = Opt.Deadvars.run f' in
  Alcotest.(check bool) "memory add present" true
    (List.exists
       (fun i -> i = Rtl.Binop (Add, Lmem (Word, m), Mem (Word, m), Imm 1))
       (Func.block f' 0).instrs);
  Alcotest.(check int) "four instructions left" 4
    (List.length (Func.block f' 0).instrs)

let test_isel_risc_rejects_mem_fold () =
  let m = Rtl.Based (Ir.Conv.fp, -8) in
  let f =
    mk "nofuse"
      [
        (fun _ ->
          [
            Rtl.Enter 8;
            Rtl.Move (Lreg (v 0), Mem (Word, m));
            Rtl.Binop (Add, Lreg (v 1), Reg (v 0), Imm 1);
            Rtl.Move (Lmem (Word, m), Reg (v 1));
            Rtl.Leave;
            Rtl.Ret;
          ]);
      ]
  in
  let f', _ = Opt.Isel.run Ir.Machine.risc f in
  Alcotest.(check bool) "all instructions stay legal" true
    (Opt.Legalize.check Ir.Machine.risc f')

(* Isel's facts die with what they mention, and only those.  Each case
   runs the block without and with the invalidating instruction: the fold
   happens in the first run and not in the second. *)
let test_isel_forgets_facts () =
  let isel machine instrs =
    let f =
      mk "iselkill"
        [ (fun _ -> (Rtl.Enter 8 :: instrs) @ [ Rtl.Leave; Rtl.Ret ]) ]
    in
    (Func.block (fst (Opt.Isel.run machine f)) 0).instrs
  in
  let case name machine ~before ~killer ~use ~folded =
    Alcotest.(check bool) (name ^ ": folded") true
      (List.mem folded (isel machine (before @ [ use ])));
    let out = isel machine (before @ [ killer; use ]) in
    Alcotest.(check bool) (name ^ ": forgotten") true (List.mem use out)
  in
  let load d a = Rtl.Move (Lreg (v d), Mem (Word, a)) in
  case "eaddr, base redefined" Machine.risc
    ~before:[ Rtl.Lea (v 1, Based (v 10, 8)) ]
    ~killer:(Rtl.Move (Lreg (v 10), Imm 0))
    ~use:(load 2 (Based (v 1, 0)))
    ~folded:(load 2 (Based (v 10, 8)));
  case "sum, index redefined" Machine.cisc
    ~before:[ Rtl.Binop (Add, Lreg (v 3), Reg (v 10), Reg (v 11)) ]
    ~killer:(Rtl.Move (Lreg (v 11), Imm 0))
    ~use:(load 4 (Based (v 3, 0)))
    ~folded:(load 4 (Indexed (v 10, v 11, 1, 0)));
  let g = Rtl.Abs ("g", 0) in
  let cmp_loaded = Rtl.Cmp (Reg (v 1), Imm 0) in
  let cmp_mem = Rtl.Cmp (Mem (Word, g), Imm 0) in
  case "loaded, then a store" Machine.cisc ~before:[ load 1 g ]
    ~killer:(Rtl.Move (Lmem (Word, Abs ("h", 0)), Imm 3))
    ~use:cmp_loaded ~folded:cmp_mem;
  case "loaded, then a call" Machine.cisc ~before:[ load 1 g ]
    ~killer:(Rtl.Call ("f", 0)) ~use:cmp_loaded ~folded:cmp_mem;
  (* v1's first fact mentions v10, its second does not: redefining v10
     must leave the second alone. *)
  Alcotest.(check bool) "replaced fact survives" true
    (List.mem
       (load 2 (Based (v 12, 4)))
       (isel Machine.risc
          [
            Rtl.Lea (v 1, Based (v 10, 8));
            Rtl.Lea (v 1, Based (v 12, 4));
            Rtl.Move (Lreg (v 10), Imm 0);
            load 2 (Based (v 1, 0));
          ]))

(* All passes preserve machine legality on compiled programs. *)
let prop_passes_keep_legality =
  QCheck.Test.make ~name:"pipeline keeps machine legality" ~count:20
    (QCheck.make
       (QCheck.Gen.oneofl
          [ ("risc", Ir.Machine.risc); ("cisc", Ir.Machine.cisc) ]))
    (fun (_, machine) ->
      let src =
        "int a[10];\n\
         int main() { int i, s; s = 0; for (i = 0; i < 10; i++) { a[i] = i * 3; \
         s += a[i]; } if (s > 20) s = s - a[2]; else s = s + a[3]; return s; }"
      in
      let prog =
        Opt.Driver.compile
          { Opt.Driver.default_options with level = Opt.Driver.Jumps }
          machine src
      in
      List.for_all (Opt.Legalize.check machine) prog.Flow.Prog.funcs)

(* The campaign store's compiler fingerprint includes
   [Opt.Driver.pipeline_signature], derived from the driver's pass table.
   Its bytes are pinned: a derivation that drifts would orphan every
   campaign store.  And it is held to the passes a compile actually
   presents: per function, the signature's prefix, then k >= 1 rounds of
   the fix(...) list, then its suffix. *)
let test_pipeline_signature () =
  let sig_ = Opt.Driver.pipeline_signature in
  Alcotest.(check string) "signature bytes"
    "legalize,branch-chain,unreachable,reorder,branch-chain,replicate,\
     unreachable,fix(isel,cse,gcse,deadvars,licm,strength,isel,branch-chain,\
     constfold,replicate,unreachable),replicate-final,unreachable,\
     branch-chain,unreachable,deadvars,regalloc,displace"
    sig_;
  let names str = String.split_on_char ',' str in
  let rec find i =
    if String.sub sig_ i 4 = "fix(" then i else find (i + 1)
  in
  let open_ = find 0 in
  let close = String.index_from sig_ open_ ')' in
  let prefix = names (String.sub sig_ 0 (open_ - 1)) in
  let round = names (String.sub sig_ (open_ + 4) (close - open_ - 4)) in
  let suffix =
    names (String.sub sig_ (close + 2) (String.length sig_ - close - 2))
  in
  let b = Option.get (Programs.Suite.find "quicksort") in
  let log = Telemetry.Log.make Telemetry.Log.Memory in
  let prog =
    Opt.Driver.compile ~log
      { Opt.Driver.default_options with level = Opt.Driver.Jumps }
      Machine.cisc b.source
  in
  List.iter
    (fun (f : Func.t) ->
      let fname = Func.name f in
      let passes =
        List.filter_map
          (function
            | Telemetry.Log.Pass_begin { func; pass } when func = fname ->
              Some pass
            | _ -> None)
          (Telemetry.Log.events log)
      in
      let k =
        (List.length passes - List.length prefix - List.length suffix)
        / List.length round
      in
      Alcotest.(check bool) (fname ^ " ran a round") true (k >= 1);
      Alcotest.(check (list string))
        (fname ^ " presented passes")
        (prefix @ List.concat (List.init k (fun _ -> round)) @ suffix)
        passes)
    prog.Flow.Prog.funcs

(* --- the fix loop's stop rule --- *)

(* nbody's putnum at SIMPLE/cisc: from round 2 on, cse and isel undo each
   other inside every round (EXPERIMENTS.md, "On cisc, cse and isel
   cycle"), so the change flags never settle but the function does. *)
let nbody = Option.get (Programs.Suite.find "nbody")

let putnum () =
  List.find
    (fun f -> Func.name f = "putnum")
    (Frontend.Codegen.compile_source nbody.source).Prog.funcs

(* The change flag of every fix-loop round [fname] has run so far, from a
   Memory log. *)
let rounds log fname =
  List.filter_map
    (function
      | Telemetry.Log.Fixpoint_iteration { func; changed; _ } when func = fname
        ->
        Some changed
      | _ -> None)
    (Telemetry.Log.events log)

let quarantine_round log fname pass =
  let rec go round = function
    | [] -> Alcotest.failf "%s/%s was not quarantined" fname pass
    | Telemetry.Log.Fixpoint_iteration { func; _ } :: rest when func = fname ->
      go (round + 1) rest
    | Telemetry.Log.Pass_quarantined q :: _
      when q.func = fname && q.pass = pass ->
      round
    | _ :: rest -> go round rest
  in
  go 1 (Telemetry.Log.events log)

(* The digest test/opt_digests.expected pins for a compile, read from the
   copy dune places beside the test (a [deps] of the test). *)
let pinned_digest key =
  let path =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "opt_digests.expected"
  in
  let prefix = key ^ " " in
  let line =
    List.find
      (String.starts_with ~prefix)
      (String.split_on_char '\n'
         (In_channel.with_open_bin path In_channel.input_all))
  in
  let n = String.length prefix in
  String.sub line n (String.length line - n)

let test_fix_stops_on_its_input () =
  let log = Telemetry.Log.make Telemetry.Log.Memory in
  let diags = ref [] in
  let prog =
    Opt.Driver.compile ~log ~diags Opt.Driver.default_options Machine.cisc
      nbody.source
  in
  let rs = rounds log "putnum" in
  Alcotest.(check bool) "putnum converges in fewer than 8 rounds" true
    (List.length rs < Opt.Driver.default_options.max_iterations);
  Alcotest.(check bool) "its last round still reported a change" true
    (List.nth rs (List.length rs - 1));
  Alcotest.(check bool) "no fixpoint divergence" false
    (List.exists
       (function Telemetry.Log.Fixpoint_diverged _ -> true | _ -> false)
       (Telemetry.Log.events log));
  Alcotest.(check bool) "no no-convergence diagnostic" false
    (List.exists
       (fun d -> d.Telemetry.Diag.code = Telemetry.Diag.No_convergence)
       !diags);
  (* The program is the one the 8-round cap gave. *)
  Alcotest.(check string) "nbody SIMPLE cisc digest"
    (pinned_digest "nbody SIMPLE cisc")
    (Digest.to_hex (Digest.string (Fmt.str "%a" Prog.pp prog)))

(* Gen seeds 3 and 13 reached the 8-round cap at most configurations
   while deadvars removed one layer of a dead chain per round.  Now every
   configuration reaches Figure 3's fixpoint. *)
let test_gen_functions_converge () =
  List.iter
    (fun seed ->
      let src = Harness.Gen.to_c (Harness.Gen.generate (Random.State.make [| seed |])) in
      List.iter
        (fun (machine : Machine.t) ->
          List.iter
            (fun level ->
              let diags = ref [] in
              ignore
                (Opt.Driver.compile ~diags
                   { Opt.Driver.default_options with level }
                   machine src);
              Alcotest.(check bool)
                (Printf.sprintf "gen%d %s %s: no no-convergence diagnostic" seed
                   (Opt.Driver.level_name level) machine.short)
                false
                (List.exists
                   (fun d -> d.Telemetry.Diag.code = Telemetry.Diag.No_convergence)
                   !diags))
            Helpers.levels)
        Helpers.machines)
    [ 3; 13 ]

(* A fix-loop pass convicted by the certifier is quarantined, and the loop
   goes on to a round without it; the rolled-back program stays correct. *)
let test_fix_runs_on_after_a_quarantine () =
  let log = Telemetry.Log.make Telemetry.Log.Memory in
  let opts =
    {
      Opt.Driver.default_options with
      certify = true;
      inject_fault = Some "cse:flip-branch";
    }
  in
  let prog = Opt.Driver.compile ~log opts Machine.cisc nbody.source in
  let round = quarantine_round log "putnum" "cse" in
  Alcotest.(check bool) "a round runs after the quarantine" true
    (List.length (rounds log "putnum") > round);
  let asm = Sim.Asm.assemble Machine.cisc prog in
  let res = Sim.Engine.run ~input:nbody.input asm prog in
  Alcotest.(check string) "output" nbody.expected_output res.output

(* A round that ends on its own input but quarantined a pass is not the
   fixpoint: the next round runs without that pass.  Replication (an
   identity at SIMPLE) raises in the round where a clean compile of putnum
   stops. *)
let test_quarantine_is_not_a_fixpoint () =
  let compile replicate =
    let log = Telemetry.Log.make Telemetry.Log.Memory in
    ignore
      (Opt.Driver.optimize_func_with ~log ~replicate:(replicate log)
         Opt.Driver.default_options Machine.cisc (putnum ()));
    log
  in
  let clean = compile (fun _ ?allow_irreducible:_ f -> (f, false)) in
  let last = List.length (rounds clean "putnum") in
  let failing =
    compile (fun log ?(allow_irreducible = false) f ->
        let round = List.length (rounds log "putnum") + 1 in
        if (not allow_irreducible) && round = last then
          failwith "replication fails"
        else (f, false))
  in
  Alcotest.(check int) "quarantined in the last clean round" last
    (quarantine_round failing "putnum" "replicate");
  Alcotest.(check int) "one more round" (last + 1)
    (List.length (rounds failing "putnum"))

(* --- no-change runs hand back their input --- *)

(* The fix loop's rows, named as the driver names them. *)
let fix_passes level machine =
  [
    ("isel", Opt.Isel.run machine); ("cse", Opt.Cse.run);
    ("gcse", Opt.Gcse.run);
    ("deadvars", Opt.Deadvars.run); ("licm", fun f -> Opt.Licm.run f);
    ("strength", Opt.Strength.run); ("isel", Opt.Isel.run machine);
    ("branch-chain", Opt.Branch_chain.run);
    ("constfold", Opt.Constfold.run machine);
    ("replicate", replicate_at level); ("unreachable", Opt.Unreachable.run);
  ]

(* Every run of a fix-loop pass over every function of the corpus and of
   Gen seeds 0-9, at each level on both machines: Figure 3's rounds run
   directly from [fix_input] until one ends on its own input or the
   driver's cap, [visit name input (output, changed)] seeing each run. *)
let iter_fix_runs visit =
  List.iter
    (fun (_, src) ->
      let prog = Frontend.Codegen.compile_source src in
      List.iter
        (fun machine ->
          List.iter
            (fun level ->
              let passes = fix_passes level machine in
              let rec round f n =
                let f' =
                  List.fold_left
                    (fun f (name, pass) ->
                      let ((f', _) as result) = pass f in
                      visit name f result;
                      f')
                    f passes
                in
                if n > 1 && not (Func.equal_blocks f f') then round f' (n - 1)
              in
              List.iter
                (fun f ->
                  round (fix_input level machine f)
                    Opt.Driver.default_options.max_iterations)
                prog.Prog.funcs)
            Helpers.levels)
        Helpers.machines)
    (corpus_and_gen_below 10)

(* The driver's memo and the liveness and graph caches know a function
   by [==], so a pass that reports no change must return its input
   itself, not an equal copy. *)
let test_no_change_returns_input () =
  let unchanged = Hashtbl.create 16 in
  iter_fix_runs (fun name f (f', changed) ->
      if not changed then begin
        if f' != f then
          Alcotest.failf "%s: %s reported no change but returned a copy"
            (Func.name f) name;
        Hashtbl.replace unchanged name
          (1 + Option.value ~default:0 (Hashtbl.find_opt unchanged name))
      end);
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " has no-change runs") true
        (Hashtbl.mem unchanged name))
    (fix_passes Opt.Driver.Jumps Machine.risc)

(* [Cfg.make] answers from its memo for a version it has seen: on every
   fix-loop input and output, it must answer what a fresh build does. *)
let test_fix_cfg_matches_fresh () =
  let graphs = ref 0 in
  let check f =
    let g = Cfg.make f in
    let succ, pred = Cfg_oracle.make f in
    incr graphs;
    for i = 0 to Func.num_blocks f - 1 do
      if Cfg.succs g i <> succ.(i) || Cfg.preds g i <> pred.(i) then
        Alcotest.failf "%s: block %d" (Func.name f) i
    done
  in
  iter_fix_runs (fun _ f (f', _) ->
      check f;
      check f');
  Printf.printf "%d graphs compared\n" !graphs

(* --- the pass boundary --- *)

(* [f] with a block jumping to a label that does not exist. *)
let with_ghost f =
  let ghost =
    {
      Func.label = Func.fresh_label f;
      instrs = [ Rtl.Jump (Label.of_int 424242) ];
    }
  in
  Func.with_blocks f (Array.append (Func.blocks f) [| ghost |])

(* The passes the boundary quarantined for a verifier failure. *)
let quarantines diags =
  List.filter_map
    (fun (d : Telemetry.Diag.t) ->
      if d.code = Telemetry.Diag.Malformed_ir then Some (d.pass, d.message)
      else None)
    diags

(* The boundary skips the structural checks of an output that is its
   input, but a row's postcondition still runs on it. *)
let test_boundary_post_on_input () =
  let f = putnum () in
  let seen = ref [] in
  let post f' =
    seen := f' :: !seen;
    [ "postcondition failed" ]
  in
  let (f', changed), diags =
    Opt.Driver.run_guarded ~post Opt.Driver.default_options Machine.cisc
      [ ("same", fun f -> (f, false)) ]
      f
  in
  Alcotest.(check bool) "post saw the output" true
    (match !seen with [ g ] -> g == f | _ -> false);
  Alcotest.(check bool) "rolled back to the input" true
    (f' == f && not changed);
  Alcotest.(check (list (pair string string))) "quarantined"
    [ ("same", "verifier: postcondition failed") ]
    (quarantines diags)

(* A rebuilt output is checked whatever its change flag says. *)
let test_boundary_rebuilt_error () =
  let f = putnum () in
  List.iter
    (fun flag ->
      let (f', changed), diags =
        Opt.Driver.run_guarded Opt.Driver.default_options Machine.cisc
          [ ("ghost", fun f -> (with_ghost f, flag)) ]
          f
      in
      Alcotest.(check bool) "rolled back to the input" true
        (f' == f && not changed);
      match quarantines diags with
      | [ ("ghost", msg) ] ->
        Alcotest.(check bool) "names the dangling target" true
          (Test_check.contains "does not exist" msg)
      | _ -> Alcotest.fail "ghost was not quarantined")
    [ true; false ]

(* A violation the input already has convicts no pass that leaves it:
   neither one that returns its input nor a later one that rebuilds it.
   A new violation on top of it still does. *)
let test_boundary_baseline () =
  let f = with_ghost (putnum ()) in
  let copy f = (Func.with_blocks f (Array.copy (Func.blocks f)), true) in
  let (f', changed), diags =
    Opt.Driver.run_guarded Opt.Driver.default_options Machine.cisc
      [ ("same", fun f -> (f, false)); ("copy", copy) ]
      f
  in
  Alcotest.(check (list (pair string string))) "nothing quarantined" []
    (quarantines diags);
  Alcotest.(check bool) "the copy is kept" true
    (changed && f' != f && Func.equal_blocks f f');
  let _, diags =
    Opt.Driver.run_guarded Opt.Driver.default_options Machine.cisc
      [
        ("same", fun f -> (f, false)); ("ghost", fun f -> (with_ghost f, true));
      ]
      f
  in
  Alcotest.(check (list string)) "the new violation convicts" [ "ghost" ]
    (List.map fst (quarantines diags))

(* --- what the output leaves to check --- *)

(* The pre-allocation output has nothing left for deadvars or branch-chain
   to do: no dead pure instruction, no transfer onto a jump-only block, no
   jump to the next block.  Every function of the corpus, of Gen seeds 0-9
   and of a self loop (a jump onto itself, which is no chain), at each
   level on both machines, comes back itself. *)
let test_preallocation_fixpoint () =
  let funcs = ref 0 in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (machine : Machine.t) ->
          List.iter
            (fun level ->
              let prog =
                Opt.Driver.compile
                  { Opt.Driver.default_options with level; allocate = false }
                  machine src
              in
              List.iter
                (fun f ->
                  incr funcs;
                  List.iter
                    (fun (pass, run) ->
                      let f', changed = run f in
                      if changed || f' != f then
                        Alcotest.failf "%s %s %s, %s: %s changes the output"
                          name
                          (Opt.Driver.level_name level)
                          machine.short (Func.name f) pass)
                    [
                      ("deadvars", Opt.Deadvars.run);
                      ("branch-chain", Opt.Branch_chain.run);
                    ])
                prog.Prog.funcs)
            Helpers.levels)
        Helpers.machines)
    (("spin", "int main() {\n  while (1) ;\n  return 0;\n}\n")
    :: corpus_and_gen_below 10);
  Printf.printf "%d functions\n" !funcs

(* A compare on a register known to hold a constant decides its branch,
   also when the constant comes from another block, which [Constfold.run]
   does not fold.  The same compare on a getchar result decides nothing. *)
let test_decidable_branches () =
  let guard ~split def =
    let entry = Rtl.Enter 8 :: def in
    let test l = [ Rtl.Cmp (Reg (v 1), Imm 0); Rtl.Branch (Ne, l.(2)) ] in
    mk "guard"
      [
        (fun l -> if split then entry else entry @ test l);
        (fun l -> if split then test l else [ Rtl.Nop ]);
        (fun _ -> [ Rtl.Move (Lreg Conv.rv, Imm 0); Rtl.Leave; Rtl.Ret ]);
      ]
  in
  let decided f =
    List.map
      (fun (b, l, taken) -> (Label.to_string b, Label.to_string l, taken))
      (Opt.Constfold.decidable_branches f)
  in
  let label f i = Label.to_string (Func.block f i).label in
  let branches = Alcotest.(list (triple string string bool)) in
  let const = [ Rtl.Move (Lreg (v 1), Imm 1) ] in
  let f = guard ~split:false const in
  Alcotest.check branches "decidable compare"
    [ (label f 0, label f 2, true) ]
    (decided f);
  let g = guard ~split:true const in
  Alcotest.check branches "constant from the block before"
    [ (label g 1, label g 2, true) ]
    (decided g);
  Alcotest.(check bool) "left by constfold" false
    (snd (Opt.Constfold.run Machine.risc g));
  let opaque =
    guard ~split:false
      [ Rtl.Call ("getchar", 0); Rtl.Move (Lreg (v 1), Reg Conv.rv) ]
  in
  Alcotest.check branches "opaque compare" [] (decided opaque)

let tests =
  ( "opt",
    [
      Alcotest.test_case "chain jump to jump" `Quick test_chain_jump_to_jump;
      Alcotest.test_case "jump to next removed" `Quick test_jump_to_next_removed;
      Alcotest.test_case "branch over jump" `Quick test_branch_over_jump;
      Alcotest.test_case "unreachable removal" `Quick test_unreachable;
      Alcotest.test_case "ijump targets kept" `Quick test_unreachable_keeps_ijump_targets;
      Alcotest.test_case "reorder" `Quick test_reorder_enables_fallthrough;
      Alcotest.test_case "constfold arithmetic" `Quick test_constfold_arith;
      Alcotest.test_case "constfold at branches" `Quick test_constfold_branch;
      Alcotest.test_case "dead variables" `Quick test_deadvars;
      Alcotest.test_case "live cmp kept" `Quick test_deadvars_keeps_live_cmp;
      Alcotest.test_case "deadvars: a dead chain in one block, one run" `Quick
        test_deadvars_chain_in_block;
      Alcotest.test_case "deadvars: a dead chain across blocks, one run" `Quick
        test_deadvars_chain_across_blocks;
      Alcotest.test_case "deadvars: a read only around a loop, one run" `Quick
        test_deadvars_read_only_around_loop;
      Alcotest.test_case "cse local" `Quick test_cse_local;
      Alcotest.test_case "cse invalidation" `Quick test_cse_invalidation;
      Alcotest.test_case "cse load/store" `Quick test_cse_loads_killed_by_store;
      Alcotest.test_case "cse extended basic block" `Quick test_cse_ebb;
      Alcotest.test_case "cse chain inherits, siblings do not" `Quick
        test_cse_ebb_chain;
      Alcotest.test_case "cse stops at joins" `Quick test_cse_join_blocked;
      Alcotest.test_case "gcse across join" `Quick test_gcse_across_join;
      Alcotest.test_case "gcse partial path blocked" `Quick test_gcse_partial_path_blocked;
      Alcotest.test_case "gcse two-address self" `Quick test_gcse_two_address_self;
      Alcotest.test_case "gcse temporaries in key order" `Quick test_gcse_temp_order;
      Alcotest.test_case "licm hoists invariants" `Quick test_licm_hoists;
      Alcotest.test_case "licm leaves variants" `Quick test_licm_leaves_variant;
      Alcotest.test_case "licm never hoists guarded div" `Quick test_licm_no_div_hoist;
      Alcotest.test_case "licm: fall-through predecessor" `Quick
        test_licm_fallthrough_pred;
      Alcotest.test_case "licm: branching predecessor gets a stub" `Quick
        test_licm_branch_pred_stub;
      Alcotest.test_case "licm: indirect jump into the header" `Quick
        test_licm_ijump_entry;
      Alcotest.test_case "licm: stacked preheaders" `Quick
        test_licm_stacked_preheaders;
      Alcotest.test_case "licm: 50-round cap" `Quick test_licm_round_cap;
      Alcotest.test_case "licm: retried after an outer hoist" `Quick
        test_licm_retry_after_outer_hoist;
      Alcotest.test_case "licm matches the oracle" `Quick test_licm_matches_oracle;
      Alcotest.test_case "deadvars matches the oracle iterated" `Quick
        test_deadvars_matches_oracle;
      Alcotest.test_case "licm's reused liveness equals fresh solves" `Quick
        test_reused_liveness;
      QCheck_alcotest.to_alcotest prop_reused_liveness;
      Alcotest.test_case "licm never solves after a hoist" `Quick
        test_licm_solves_before_hoists;
      Alcotest.test_case "licm skips only loops with their old footprint" `Quick
        test_licm_skips_unchanged_loops;
      Alcotest.test_case "natural loops and rpo match the references" `Quick
        test_natural_loops_reference;
      Alcotest.test_case "licm preheader updates equal rebuilds" `Quick
        test_preheader_updates;
      Alcotest.test_case "strength reduction" `Quick test_strength_reduction;
      Alcotest.test_case "isel copy/const propagation" `Quick test_isel_copy_prop;
      Alcotest.test_case "isel cisc fusion" `Quick test_isel_cisc_fusion;
      Alcotest.test_case "isel risc stays legal" `Quick test_isel_risc_rejects_mem_fold;
      Alcotest.test_case "isel forgets stale facts" `Quick test_isel_forgets_facts;
      Alcotest.test_case "pipeline signature matches the passes run" `Quick
        test_pipeline_signature;
      Alcotest.test_case "fix loop stops on its own input" `Quick
        test_fix_stops_on_its_input;
      Alcotest.test_case "Gen functions reach the fixpoint" `Quick
        test_gen_functions_converge;
      Alcotest.test_case "fix loop runs on after a quarantine" `Quick
        test_fix_runs_on_after_a_quarantine;
      Alcotest.test_case "a quarantining round is not a fixpoint" `Quick
        test_quarantine_is_not_a_fixpoint;
      Alcotest.test_case "no-change fix-loop runs return their input" `Quick
        test_no_change_returns_input;
      Alcotest.test_case "fix-loop graphs equal fresh builds" `Quick
        test_fix_cfg_matches_fresh;
      Alcotest.test_case "boundary: post runs on an unchanged output" `Quick
        test_boundary_post_on_input;
      Alcotest.test_case "boundary: a rebuilt output is verified" `Quick
        test_boundary_rebuilt_error;
      Alcotest.test_case "boundary: a present violation convicts no one" `Quick
        test_boundary_baseline;
      Alcotest.test_case
        "pre-allocation output is a deadvars and branch-chain fixpoint" `Quick
        test_preallocation_fixpoint;
      Alcotest.test_case "constfold: decidable branches" `Quick
        test_decidable_branches;
      QCheck_alcotest.to_alcotest prop_passes_keep_legality;
    ] )
