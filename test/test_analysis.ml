(* The generic dataflow framework and its analysis instances. *)

open Ir
open Flow

(* --- the solver itself --- *)

module Bits = Analysis.Dataflow.Solver (struct
  type t = int

  let equal = Int.equal
  let join = ( lor )
end)

(* A diamond over bit-set facts: each node contributes its own bit; the
   join must accumulate both arms. *)
let test_solver_diamond () =
  let g =
    {
      Analysis.Dataflow.nodes = 4;
      succs = (function 0 -> [ 1; 2 ] | 1 | 2 -> [ 3 ] | _ -> []);
      preds = (function 1 | 2 -> [ 0 ] | 3 -> [ 1; 2 ] | _ -> []);
      rpo = [| 0; 1; 2; 3 |];
    }
  in
  let r =
    Bits.solve ~direction:Analysis.Dataflow.Forward ~graph:g ~empty:0
      ~init:(fun _ -> 0)
      ~transfer:(fun i fact -> fact lor (1 lsl i))
      ()
  in
  Alcotest.(check int) "entry input" 0 r.Bits.input.(0);
  Alcotest.(check int) "join input" 0b0111 r.Bits.input.(3);
  Alcotest.(check int) "join output" 0b1111 r.Bits.output.(3);
  Alcotest.(check bool) "visited each node" true (r.Bits.stats.visits >= 4)

(* A non-monotone transfer function on a cycle never reaches a fixpoint;
   the visit budget must turn that into the Diverged diagnostic. *)
let test_solver_diverges () =
  let g =
    {
      Analysis.Dataflow.nodes = 2;
      succs = (function 0 -> [ 1 ] | _ -> [ 0 ]);
      preds = (function 0 -> [ 1 ] | _ -> [ 0 ]);
      rpo = [| 0; 1 |];
    }
  in
  Alcotest.check_raises "diverges"
    (Analysis.Dataflow.Diverged
       "no fixpoint after 33 node visits (2 nodes); transfer function is \
        not monotone or the lattice has unbounded height")
    (fun () ->
      ignore
        (Bits.solve ~max_visits:32 ~direction:Analysis.Dataflow.Forward
           ~graph:g ~empty:0
           ~init:(fun _ -> 0)
           ~transfer:(fun _ fact -> fact + 1)
           ()))

let test_restrict () =
  let g =
    {
      Analysis.Dataflow.nodes = 3;
      succs = (function 0 -> [ 1; 2 ] | 1 -> [ 2 ] | _ -> []);
      preds = (function 1 -> [ 0 ] | 2 -> [ 0; 1 ] | _ -> []);
      rpo = [| 0; 1; 2 |];
    }
  in
  let r = Analysis.Dataflow.restrict g ~keep:(fun i -> i <> 1) in
  Alcotest.(check (list int)) "succs skip dropped node" [ 2 ] (r.succs 0);
  Alcotest.(check (list int)) "dropped node isolated" [] (r.succs 1);
  Alcotest.(check (list int)) "preds skip dropped node" [ 0 ] (r.preds 2)

(* --- the per-function cache --- *)

let test_cache () =
  let cache = Analysis.Cache.create ~size:2 () in
  let calls = ref 0 in
  let compute k =
    incr calls;
    String.length k
  in
  let a = "aa" and b = "bbb" and c = "cccc" in
  Alcotest.(check int) "computed" 2 (Analysis.Cache.find cache a compute);
  Alcotest.(check int) "cached" 2 (Analysis.Cache.find cache a compute);
  Alcotest.(check int) "one compute" 1 !calls;
  ignore (Analysis.Cache.find cache b compute);
  ignore (Analysis.Cache.find cache c compute);
  (* Capacity 2: inserting [c] evicted [a]. *)
  ignore (Analysis.Cache.find cache a compute);
  Alcotest.(check int) "recomputed after eviction" 4 !calls

(* --- analyses over real functions --- *)

let instrs_of func =
  Array.map (fun (b : Func.block) -> b.instrs) (Func.blocks func)

(* The diamond from Test_flow: 0 -> {1, 2} -> 3; pads define v0 in block 0,
   v100 in block 1, v200 in block 2; the branch compares v999 (undefined). *)
let test_reaching_diamond () =
  let f = Test_flow.diamond () in
  let cfg = Cfg.make f in
  let r =
    Analysis.Reaching.solve ~graph:(Cfg.graph cfg) ~instrs:(instrs_of f) ()
  in
  let must = r.Analysis.Reaching.must_defined_in in
  Alcotest.(check bool) "entry def on every path to the join" true
    (Reg.Set.mem (Reg.Virt 0) must.(3));
  Alcotest.(check bool) "arm def not on every path" false
    (Reg.Set.mem (Reg.Virt 100) must.(3));
  let reaches reg b =
    Analysis.Reaching.Int_set.exists
      (fun sid -> Reg.equal r.Analysis.Reaching.sites.(sid).reg reg)
      r.Analysis.Reaching.reach_in.(b)
  in
  Alcotest.(check bool) "arm def may reach the join" true
    (reaches (Reg.Virt 100) 3);
  Alcotest.(check bool) "other arm too" true (reaches (Reg.Virt 200) 3);
  Alcotest.(check bool) "entry sees no defs" false (reaches (Reg.Virt 0) 0);
  match
    Analysis.Reaching.uninitialized_uses r ~instrs:(instrs_of f)
      ~keep:Reg.is_virt
      ~reachable:(fun _ -> true)
  with
  | [ (0, 2, reg) ] ->
    Alcotest.(check bool) "the undefined branch operand" true
      (Reg.equal reg (Reg.Virt 999))
  | uses ->
    Alcotest.fail
      (Printf.sprintf "expected exactly the v999 use, got %d findings"
         (List.length uses))

(* A custom function builder with explicit instruction lists. *)
let func_of mks =
  let lsupply = Label.Supply.create () in
  let vsupply = Reg.Supply.create () in
  let labels =
    Array.init (Array.length mks) (fun _ -> Label.Supply.fresh lsupply)
  in
  let blocks =
    Array.mapi
      (fun i mk -> { Func.label = labels.(i); instrs = mk labels })
      mks
  in
  Func.make ~name:"t" ~blocks ~lsupply ~vsupply

let v n = Reg.Virt n
let add d a b = Rtl.Binop (Rtl.Add, Lreg (v d), Reg (v a), Reg (v b))

(* v2 := v1+v1 computed on both arms of a diamond: available at the join;
   killed when an arm redefines v1. *)
let test_avail_join () =
  let f =
    func_of
      [|
        (fun ls ->
          [
            Rtl.Enter 8;
            Rtl.Move (Lreg (v 1), Imm 7);
            add 2 1 1;
            Rtl.Cmp (Reg (v 2), Imm 0);
            Rtl.Branch (Rtl.Ne, ls.(2));
          ]);
        (fun ls -> [ add 3 1 1; Rtl.Jump ls.(3) ]);
        (fun _ -> [ add 4 1 1 ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      |]
  in
  let g = Cfg.graph (Cfg.make f) in
  let a = Analysis.Avail.solve ~graph:g ~instrs:(instrs_of f) () in
  let has_add b =
    Analysis.Avail.Key_set.exists
      (function
        | Analysis.Avail.Kbinop (Rtl.Add, Rtl.Reg r1, Rtl.Reg r2) ->
          Reg.equal r1 (v 1) && Reg.equal r2 (v 1)
        | _ -> false)
      a.Analysis.Avail.avail_in.(b)
  in
  Alcotest.(check bool) "not available at the entry" false (has_add 0);
  Alcotest.(check bool) "available on the fall arm" true (has_add 1);
  Alcotest.(check bool) "available at the join" true (has_add 3);
  (* Redefine v1 on one arm: the expression dies at the join. *)
  let f' =
    func_of
      [|
        (fun ls ->
          [
            Rtl.Enter 8;
            Rtl.Move (Lreg (v 1), Imm 7);
            add 2 1 1;
            Rtl.Cmp (Reg (v 2), Imm 0);
            Rtl.Branch (Rtl.Ne, ls.(2));
          ]);
        (fun ls -> [ Rtl.Move (Lreg (v 1), Imm 9); Rtl.Jump ls.(3) ]);
        (fun _ -> [ add 4 1 1 ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      |]
  in
  let a' =
    Analysis.Avail.solve
      ~graph:(Cfg.graph (Cfg.make f'))
      ~instrs:(instrs_of f') ()
  in
  let has_add' b =
    Analysis.Avail.Key_set.exists
      (function
        | Analysis.Avail.Kbinop (Rtl.Add, _, _) -> true
        | _ -> false)
      a'.Analysis.Avail.avail_in.(b)
  in
  Alcotest.(check bool) "killed by the redefinition" false (has_add' 3)

(* Constants agreeing at a join survive; disagreeing ones are dropped. *)
let test_copyconst_join () =
  let f =
    func_of
      [|
        (fun ls ->
          [
            Rtl.Enter 8;
            Rtl.Move (Lreg (v 9), Imm 0);
            Rtl.Cmp (Reg (v 9), Imm 0);
            Rtl.Branch (Rtl.Ne, ls.(2));
          ]);
        (fun ls ->
          [
            Rtl.Move (Lreg (v 1), Imm 4);
            Rtl.Move (Lreg (v 2), Imm 5);
            Rtl.Jump ls.(3);
          ]);
        (fun _ ->
          [ Rtl.Move (Lreg (v 1), Imm 4); Rtl.Move (Lreg (v 2), Imm 6) ]);
        (fun _ -> [ Rtl.Leave; Rtl.Ret ]);
      |]
  in
  let c =
    Analysis.Copyconst.solve
      ~graph:(Cfg.graph (Cfg.make f))
      ~instrs:(instrs_of f) ()
  in
  let at3 = c.Analysis.Copyconst.fact_in.(3) in
  Alcotest.(check bool) "join reached" true (Analysis.Copyconst.reached at3);
  Alcotest.(check (option int)) "agreeing constant survives" (Some 4)
    (Analysis.Copyconst.operand_const at3 (Rtl.Reg (v 1)));
  Alcotest.(check (option int)) "disagreeing constant dropped" None
    (Analysis.Copyconst.operand_const at3 (Rtl.Reg (v 2)));
  Alcotest.(check (option int)) "copy chains resolve" (Some 0)
    (Analysis.Copyconst.operand_const
       (Analysis.Copyconst.step
          (Rtl.Move (Lreg (v 3), Reg (v 9)))
          c.Analysis.Copyconst.fact_in.(1))
       (Rtl.Reg (v 3)))

(* --- bitset liveness == the naive reference solver --- *)

(* The pre-framework implementation, kept as an executable specification. *)
let naive_liveness func =
  let g = Cfg.make func in
  let n = Func.num_blocks func in
  let live_in = Array.make n Reg.Set.empty in
  let live_out = Array.make n Reg.Set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc s -> Reg.Set.union acc live_in.(s))
          Reg.Set.empty (Cfg.succs g i)
      in
      let inn = Live_oracle.block_transfer (Func.block func i).instrs out in
      if
        (not (Reg.Set.equal out live_out.(i)))
        || not (Reg.Set.equal inn live_in.(i))
      then begin
        live_out.(i) <- out;
        live_in.(i) <- inn;
        changed := true
      end
    done
  done;
  (live_in, live_out)

(* Block facts, every live-after view of [fold_backward], and the visit
   count all agree with the [Reg.Set] solvers. *)
let check_liveness_agrees func =
  let live = Liveness.compute func in
  let ref_in, ref_out = naive_liveness func in
  let fail i what expected got =
    QCheck.Test.fail_reportf
      "liveness mismatch in %s block %d (%s):\n  reference %s\n  bitset    %s"
      (Func.name func) i what
      (Live_oracle.set_to_string expected)
      (Live_oracle.set_to_string got)
  in
  Array.iteri
    (fun i expected ->
      let got_in = Live_oracle.to_set (Liveness.live_in live i) in
      let got_out = Live_oracle.to_set (Liveness.live_out live i) in
      if not (Reg.Set.equal expected got_in) then fail i "in" expected got_in;
      if not (Reg.Set.equal ref_out.(i) got_out) then
        fail i "out" ref_out.(i) got_out;
      Reg.Set.iter
        (fun r ->
          if not (Liveness.mem_in live i r) then fail i "mem_in" expected got_in)
        expected;
      let _ : Reg.Set.t =
        Liveness.fold_backward live
          (fun after instr ~live_after ->
            let got = Live_oracle.to_set live_after in
            if not (Reg.Set.equal after got) then fail i "live-after" after got;
            Live_oracle.step instr after)
          i ~init:ref_out.(i)
      in
      ())
    ref_in;
  let generic =
    Live_oracle.solve ~graph:(Cfg.graph (Cfg.make func))
      ~instrs:(Array.map (fun (b : Func.block) -> b.instrs) (Func.blocks func))
      ()
  in
  let visits = (Liveness.stats live).Analysis.Dataflow.visits in
  if generic.stats.visits <> visits then
    QCheck.Test.fail_reportf "%s: %d bitset visits, %d generic" (Func.name func)
      visits generic.stats.visits;
  true

let arb_program =
  QCheck.make ~print:Harness.Gen.to_c
    ~shrink:(fun p yield -> Seq.iter yield (Harness.Gen.shrink p))
    Harness.Gen.generate

(* The later stages the consumers see: the replicated pipeline still on
   virtuals, and the allocated, displaced CISC result (physical registers
   only). *)
let funcs_after_replication src =
  let replicated =
    Opt.Driver.compile
      {
        Opt.Driver.default_options with
        level = Opt.Driver.Jumps;
        allocate = false;
      }
      Ir.Machine.risc src
  in
  let final =
    Opt.Driver.compile
      { Opt.Driver.default_options with level = Opt.Driver.Jumps }
      Ir.Machine.cisc src
  in
  replicated.Prog.funcs @ final.Prog.funcs

let prop_liveness_equivalent =
  QCheck.Test.make ~name:"framework liveness matches the reference solver"
    ~count:40 arb_program (fun p ->
      let src = Harness.Gen.to_c p in
      (* Fresh codegen output and the optimized (still virtual) form. *)
      let raw = Frontend.Codegen.compile_source src in
      let opt =
        Opt.Driver.compile
          { Opt.Driver.default_options with allocate = false }
          Ir.Machine.risc src
      in
      List.for_all check_liveness_agrees raw.Prog.funcs
      && List.for_all check_liveness_agrees opt.Prog.funcs)

let test_liveness_paper_suite () =
  List.iter
    (fun (b : Programs.Suite.benchmark) ->
      List.iter
        (fun f -> ignore (check_liveness_agrees f))
        (funcs_after_replication b.source))
    Programs.Suite.all

(* Calls, the prologue/epilogue pair and an indirect jump (a dense
   switch), at every stage. *)
let test_liveness_shapes () =
  let src =
    {|int f(int a, int b) { return a * b + 1; }
int main() {
  int i, s;
  s = 0;
  for (i = 0; i < 12; i++) {
    switch (i % 5) {
      case 0: s += f(i, 2); break;
      case 1: s -= 3; break;
      case 2: s += f(s, i); break;
      case 3: s = s ^ 7; break;
      case 4: s += 1; break;
    }
  }
  putchar(65 + (s & 15));
  return 0;
}
|}
  in
  let funcs =
    (Frontend.Codegen.compile_source src).Prog.funcs
    @ funcs_after_replication src
  in
  let has p =
    List.exists
      (fun f ->
        Array.exists
          (fun (b : Func.block) -> List.exists p b.instrs)
          (Func.blocks f))
      funcs
  in
  Alcotest.(check bool) "covers Call" true
    (has (function Rtl.Call _ -> true | _ -> false));
  Alcotest.(check bool) "covers Ijump" true
    (has (function Rtl.Ijump _ -> true | _ -> false));
  Alcotest.(check bool) "covers Enter" true
    (has (function Rtl.Enter _ -> true | _ -> false));
  Alcotest.(check bool) "covers Leave" true
    (has (function Rtl.Leave -> true | _ -> false));
  Alcotest.(check bool) "covers physical registers" true
    (has (fun i -> Reg.Set.exists Reg.is_phys (Rtl.defs i)));
  List.iter (fun f -> ignore (check_liveness_agrees f)) funcs

(* [k] virtuals defined in the entry, carried round a loop and read at
   the exit: sets of [k] live registers, on either side of the 62-bit
   word boundaries. *)
let wide_func k =
  let lsupply = Label.Supply.create () in
  let vsupply = Reg.Supply.create_from k in
  let l0 = Label.Supply.fresh lsupply in
  let l1 = Label.Supply.fresh lsupply in
  let l2 = Label.Supply.fresh lsupply in
  let v i = Reg.Virt i in
  let defs = List.init k (fun i -> Rtl.Move (Lreg (v i), Imm i)) in
  let uses =
    List.init k (fun i -> Rtl.Binop (Add, Lreg Conv.rv, Reg Conv.rv, Reg (v i)))
  in
  let blocks =
    [|
      { Func.label = l0; instrs = Rtl.Enter 8 :: defs };
      {
        Func.label = l1;
        instrs =
          [
            Rtl.Binop (Sub, Lreg (v 0), Reg (v 0), Imm 1);
            Rtl.Cmp (Reg (v 0), Imm 0);
            Rtl.Branch (Gt, l1);
          ];
      };
      { Func.label = l2; instrs = uses @ [ Rtl.Leave; Rtl.Ret ] };
    |]
  in
  Func.make ~name:(Printf.sprintf "wide%d" k) ~blocks ~lsupply ~vsupply

let test_liveness_wide () =
  List.iter
    (fun k ->
      let f = wide_func k in
      ignore (check_liveness_agrees f);
      let live = Liveness.compute f in
      Alcotest.(check int)
        (Printf.sprintf "%d virtuals live into the loop" k)
        k
        (Liveness.Regs.fold
           (fun r n -> if Reg.is_virt r then n + 1 else n)
           (Liveness.live_in live 1) 0))
    [ 1; 38; 39; 40; 62; 63; 100; 101; 102; 124; 125; 200 ]

(* The liveness memo is one table per process.  Its entries are
   immutable pairs swapped in by a single field write, so even two
   domains hammering it at once each get the sequential facts. *)
let test_liveness_domains () =
  let funcs =
    List.concat_map
      (fun name ->
        let b = Option.get (Programs.Suite.find name) in
        (Frontend.Codegen.compile_source b.source).Prog.funcs)
      [ "wc"; "queens"; "sieve"; "lexer" ]
  in
  let facts f =
    let live = Liveness.compute f in
    Array.init (Func.num_blocks f) (fun i ->
        Live_oracle.to_set (Liveness.live_in live i))
  in
  let expected = List.map facts funcs in
  let worker () = List.init 25 (fun _ -> List.map facts funcs) in
  let domains = List.init 2 (fun _ -> Domain.spawn worker) in
  List.iter
    (fun d ->
      List.iter
        (fun got ->
          Alcotest.(check bool) "same facts as a sequential solve" true
            (List.for_all2 (Array.for_all2 Reg.Set.equal) expected got))
        (Domain.join d))
    domains

(* --- random instructions and graphs --- *)

let gen_reg =
  QCheck.Gen.(
    frequency
      [
        (1, return Reg.Cc);
        (3, map (fun i -> Reg.Phys i) (int_bound (Conv.num_regs - 1)));
        (6, map (fun i -> Reg.Virt i) (int_bound 160));
      ])

let gen_addr =
  QCheck.Gen.(
    oneof
      [
        map2 (fun r d -> Rtl.Based (r, d)) gen_reg small_signed_int;
        map3 (fun b i s -> Rtl.Indexed (b, i, s, 4)) gen_reg gen_reg
          (oneofl [ 1; 2; 4 ]);
        return (Rtl.Abs ("g", 8));
      ])

let gen_operand =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Rtl.Reg r) gen_reg;
        map (fun n -> Rtl.Imm n) small_signed_int;
        map (fun a -> Rtl.Mem (Word, a)) gen_addr;
      ])

let gen_loc =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Rtl.Lreg r) gen_reg;
        map (fun a -> Rtl.Lmem (Byte, a)) gen_addr;
      ])

let gen_instr =
  let l = Label.of_int 1 in
  QCheck.Gen.(
    oneof
      [
        map2 (fun d s -> Rtl.Move (d, s)) gen_loc gen_operand;
        map2 (fun r a -> Rtl.Lea (r, a)) gen_reg gen_addr;
        map3
          (fun d a b -> Rtl.Binop (Add, d, a, b))
          gen_loc gen_operand gen_operand;
        map2 (fun d a -> Rtl.Unop (Neg, d, a)) gen_loc gen_operand;
        map2 (fun a b -> Rtl.Cmp (a, b)) gen_operand gen_operand;
        return (Rtl.Branch (Lt, l));
        return (Rtl.Jump l);
        map (fun r -> Rtl.Ijump (r, [| l; l |])) gen_reg;
        map (fun n -> Rtl.Call ("f", n)) (int_bound (Conv.max_args + 1));
        return Rtl.Ret;
        return (Rtl.Enter 16);
        return Rtl.Leave;
        return Rtl.Nop;
      ])

let arb_instr = QCheck.make ~print:Rtl.instr_to_string gen_instr

let collect iter instr =
  let s = ref Reg.Set.empty in
  iter (fun r -> s := Reg.Set.add r !s) instr;
  !s

let prop_iter_regs =
  QCheck.Test.make ~name:"iter_uses/iter_defs visit exactly uses/defs"
    ~count:2000 arb_instr (fun i ->
      Reg.Set.equal (collect Rtl.iter_uses i) (Rtl.uses i)
      && Reg.Set.equal (collect Rtl.iter_defs i) (Rtl.defs i))

(* An arbitrary flow graph (any edges: self-loops, irreducible cycles,
   unreachable nodes) with random instructions in every node; the
   instructions need not agree with the edges, the solvers only read
   them.  [rpo] is a depth-first reverse postorder from node 0 with the
   unreachable nodes appended, as [Cfg.reverse_postorder] builds it. *)
let gen_flow =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    array_repeat n (list_size (int_bound 3) (int_bound (n - 1)))
    >>= fun succs ->
    array_repeat n (list_size (int_bound 6) gen_instr) >>= fun instrs ->
    let succs = Array.map (List.sort_uniq compare) succs in
    return (succs, instrs))

let graph_of succs =
  let n = Array.length succs in
  let preds = Array.make n [] in
  Array.iteri
    (fun i ss -> List.iter (fun s -> preds.(s) <- i :: preds.(s)) ss)
    succs;
  let preds = Array.map List.rev preds in
  let seen = Array.make n false in
  let order = ref [] in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit succs.(i);
      order := i :: !order
    end
  in
  visit 0;
  let rest = List.filter (fun i -> not seen.(i)) (List.init n Fun.id) in
  {
    Analysis.Dataflow.nodes = n;
    succs = Array.get succs;
    preds = Array.get preds;
    rpo = Array.of_list (!order @ rest);
  }

let print_flow (succs, instrs) =
  String.concat "\n"
    (Array.to_list
       (Array.mapi
          (fun i ss ->
            Printf.sprintf "%d -> [%s]: %s" i
              (String.concat "," (List.map string_of_int ss))
              (String.concat " " (List.map Rtl.instr_to_string instrs.(i))))
          succs))

let prop_bitset_solver_matches_generic =
  QCheck.Test.make ~name:"bitset liveness: generic solver's facts and visits"
    ~count:500 (QCheck.make ~print:print_flow gen_flow) (fun (succs, instrs) ->
      let graph = graph_of succs in
      let bits = Analysis.Live.solve ~graph ~instrs () in
      let generic = Live_oracle.solve ~graph ~instrs () in
      let same = ref true in
      for i = 0 to graph.nodes - 1 do
        if
          (not
             (Reg.Set.equal generic.live_in.(i)
                (Live_oracle.to_set (Analysis.Live.live_in bits i))))
          || not
               (Reg.Set.equal generic.live_out.(i)
                  (Live_oracle.to_set (Analysis.Live.live_out bits i)))
        then same := false
      done;
      !same
      && (Analysis.Live.stats bits).visits = generic.stats.visits)

(* The indexed kill query is a performance rewrite of the reference
   full-scan definition; pin their equality on every instruction of real
   compiled functions. *)
let test_kills_matches_killed_by () =
  List.iter
    (fun name ->
      let b = Option.get (Programs.Suite.find name) in
      let prog =
        Opt.Driver.compile
          { Opt.Driver.default_options with level = Opt.Driver.Jumps }
          Machine.cisc b.source
      in
      List.iter
        (fun f ->
          let a =
            Analysis.Avail.solve
              ~graph:(Cfg.graph (Cfg.make f))
              ~instrs:(instrs_of f) ()
          in
          Array.iter
            (fun (blk : Func.block) ->
              List.iter
                (fun i ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/%s: kills = killed_by" name
                       (Func.name f))
                    true
                    (Analysis.Avail.Key_set.equal
                       (Analysis.Avail.kills a.Analysis.Avail.index i)
                       (Analysis.Avail.killed_by a.Analysis.Avail.universe i)))
                blk.instrs)
            (Func.blocks f))
        prog.Prog.funcs)
    [ "wc"; "queens"; "matmult"; "nbody" ]

let tests =
  ( "analysis",
    [
      Alcotest.test_case "solver: forward diamond" `Quick test_solver_diamond;
      Alcotest.test_case "solver: divergence diagnostic" `Quick
        test_solver_diverges;
      Alcotest.test_case "solver: graph restriction" `Quick test_restrict;
      Alcotest.test_case "fact cache" `Quick test_cache;
      Alcotest.test_case "reaching definitions on a diamond" `Quick
        test_reaching_diamond;
      Alcotest.test_case "available expressions at a join" `Quick
        test_avail_join;
      Alcotest.test_case "copy/constant facts at a join" `Quick
        test_copyconst_join;
      Alcotest.test_case "indexed kills equal reference killed_by" `Quick
        test_kills_matches_killed_by;
      QCheck_alcotest.to_alcotest prop_liveness_equivalent;
      Alcotest.test_case "liveness after replication, regalloc, displacement"
        `Quick test_liveness_paper_suite;
      Alcotest.test_case "liveness: calls, prologue, indirect jumps" `Quick
        test_liveness_shapes;
      Alcotest.test_case "liveness: multi-word register sets" `Quick
        test_liveness_wide;
      Alcotest.test_case "liveness: per-domain memo" `Quick
        test_liveness_domains;
      QCheck_alcotest.to_alcotest prop_iter_regs;
      QCheck_alcotest.to_alcotest prop_bitset_solver_matches_generic;
    ] )
