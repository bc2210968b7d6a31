(* CFG, dominators, loops, reducibility and liveness. *)

open Ir
open Flow

(* Build a function from a shape description: each block is (size, term)
   where [term] describes the terminator and [size] pads with moves. *)
type term = Fall | Jmp of int | Br of int | Return

let build shape =
  let lsupply = Label.Supply.create () in
  let vsupply = Reg.Supply.create () in
  let labels = Array.init (Array.length shape) (fun _ -> Label.Supply.fresh lsupply) in
  let blocks =
    Array.mapi
      (fun i (size, term) ->
        let pad =
          List.init size (fun k -> Rtl.Move (Lreg (Reg.Virt ((i * 100) + k)), Imm k))
        in
        let tail =
          match term with
          | Fall -> []
          | Jmp t -> [ Rtl.Jump labels.(t) ]
          | Br t -> [ Rtl.Cmp (Reg (Reg.Virt 999), Imm 0); Rtl.Branch (Rtl.Ne, labels.(t)) ]
          | Return -> [ Rtl.Leave; Rtl.Ret ]
        in
        { Func.label = labels.(i); instrs = pad @ tail })
      shape
  in
  (* Entry must start with Enter. *)
  let entry = blocks.(0) in
  blocks.(0) <- { entry with instrs = Rtl.Enter 8 :: entry.instrs };
  Func.make ~name:"t" ~blocks ~lsupply ~vsupply

(* A diamond: 0 -> {1, 2} -> 3 -> ret *)
let diamond () =
  build [| (1, Br 2); (1, Jmp 3); (1, Fall); (1, Return) |]

let test_cfg_edges () =
  let f = diamond () in
  let g = Cfg.make f in
  Alcotest.(check (list int)) "entry succs" [ 1; 2 ] (Cfg.succs g 0);
  Alcotest.(check (list int)) "jump succ" [ 3 ] (Cfg.succs g 1);
  Alcotest.(check (list int)) "fall succ" [ 3 ] (Cfg.succs g 2);
  Alcotest.(check (list int)) "ret succs" [] (Cfg.succs g 3);
  Alcotest.(check (list int)) "join preds" [ 1; 2 ] (List.sort compare (Cfg.preds g 3))

let test_dominators_diamond () =
  let f = diamond () in
  let g = Cfg.make f in
  let dom = Dom.compute g in
  Alcotest.(check bool) "entry dominates all" true
    (List.for_all (fun b -> Dom.dominates dom 0 b) [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "branch arm does not dominate join" false
    (Dom.dominates dom 1 3);
  Alcotest.(check bool) "idom of join is entry" true (Dom.idom dom 3 = Some 0);
  Alcotest.(check bool) "reflexive" true (Dom.dominates dom 2 2)

(* A while loop: 0 -> 1(test) -> {2(body), 3(exit)}; 2 -> 1. *)
let loop_func () = build [| (1, Fall); (1, Br 3); (2, Jmp 1); (1, Return) |]

let test_natural_loops () =
  let f = loop_func () in
  let g = Cfg.make f in
  let dom = Dom.compute g in
  (match Loops.natural_loops g dom with
  | [ l ] ->
    Alcotest.(check int) "header" 1 l.header;
    Alcotest.(check (list int)) "body" [ 1; 2 ] (Loops.Int_set.elements l.body)
  | ls -> Alcotest.fail (Printf.sprintf "expected 1 loop, got %d" (List.length ls)));
  Alcotest.(check bool) "reducible" true (Loops.is_reducible g dom)

let test_irreducible () =
  (* Two entries into a cycle: 0 branches to 2; falls to 1; 1 -> 2 -> 1. *)
  let f = build [| (1, Br 2); (1, Fall); (1, Jmp 1); (1, Return) |] in
  let g = Cfg.make f in
  let dom = Dom.compute g in
  Alcotest.(check bool) "irreducible" false (Loops.is_reducible g dom)

let test_nested_loops () =
  (* 0 -> 1(outer hdr) -> 2(inner hdr) -> 3(inner body, jmp 2) ...
     block2 branches to 4 (inner exit) which jumps back to 1; 1 branches to 5. *)
  let f =
    build
      [|
        (1, Fall) (* 0 entry *);
        (1, Br 5) (* 1 outer header; exit to 5 *);
        (1, Br 4) (* 2 inner header; exit to 4 *);
        (1, Jmp 2) (* 3 inner body -> inner header *);
        (1, Jmp 1) (* 4 outer latch -> outer header *);
        (1, Return) (* 5 *);
      |]
  in
  let g = Cfg.make f in
  let dom = Dom.compute g in
  let loops = Loops.innermost_first (Loops.natural_loops g dom) in
  (match loops with
  | [ inner; outer ] ->
    Alcotest.(check int) "inner header" 2 inner.header;
    Alcotest.(check int) "outer header" 1 outer.header;
    Alcotest.(check bool) "nesting" true
      (Loops.Int_set.subset inner.body outer.body)
  | _ -> Alcotest.fail "expected two loops");
  (match Loops.enclosing_loop loops 3 with
  | Some l -> Alcotest.(check int) "innermost of 3" 2 l.header
  | None -> Alcotest.fail "block 3 is in a loop")

let test_liveness () =
  let lsupply = Label.Supply.create () in
  let vsupply = Reg.Supply.create_from 10 in
  let l0 = Label.Supply.fresh lsupply and l1 = Label.Supply.fresh lsupply in
  let v0 = Reg.Virt 0 and v1 = Reg.Virt 1 in
  let blocks =
    [|
      { Func.label = l0;
        instrs = [ Rtl.Enter 8; Rtl.Move (Lreg v0, Imm 1); Rtl.Move (Lreg v1, Imm 2) ] };
      { Func.label = l1;
        instrs =
          [ Rtl.Binop (Add, Lreg (Reg.Virt 2), Reg v0, Reg v0); Rtl.Leave; Rtl.Ret ] };
    |]
  in
  let f = Func.make ~name:"live" ~blocks ~lsupply ~vsupply in
  let live = Liveness.compute f in
  Alcotest.(check bool) "v0 live into block 1" true
    (Liveness.Regs.mem (Liveness.live_in live 1) v0);
  Alcotest.(check bool) "v1 dead into block 1" false
    (Liveness.mem_in live 1 v1);
  Alcotest.(check bool) "v0 live out of block 0" true
    (Liveness.mem_out live 0 v0);
  Alcotest.(check bool) "registers never mentioned are not members" false
    (Liveness.mem_in live 1 (Reg.Virt 5000))

let test_check_catches () =
  let lsupply = Label.Supply.create () in
  let vsupply = Reg.Supply.create () in
  let l0 = Label.Supply.fresh lsupply in
  let bogus = Label.of_int 999 in
  let blocks =
    [| { Func.label = l0; instrs = [ Rtl.Enter 8; Rtl.Jump bogus ] } |]
  in
  let f = Func.make ~name:"bad" ~blocks ~lsupply ~vsupply in
  Alcotest.(check bool) "missing target detected" true (Check.errors f <> []);
  let blocks2 =
    [| { Func.label = l0; instrs = [ Rtl.Enter 8; Rtl.Move (Lreg (Reg.Virt 0), Imm 1) ] } |]
  in
  let f2 = Func.make ~name:"bad2" ~blocks:blocks2 ~lsupply ~vsupply in
  Alcotest.(check bool) "falling off the end detected" true (Check.errors f2 <> [])

(* --- Random CFGs: dominators against a naive reference --- *)

let random_shape =
  QCheck.Gen.(
    sized_size (int_range 2 14) (fun n ->
        let* terms =
          list_repeat n
            (oneof
               [
                 return Fall;
                 map (fun t -> Jmp t) (int_bound (n - 1));
                 map (fun t -> Br t) (int_bound (n - 1));
                 return Return;
               ])
        in
        let terms = Array.of_list terms in
        (* The last block must not fall off the end. *)
        (match terms.(n - 1) with
        | Fall | Br _ -> terms.(n - 1) <- Return
        | Jmp _ | Return -> ());
        return (Array.map (fun t -> (1, t)) terms)))

let show_shape shape =
  String.concat ";"
    (Array.to_list
       (Array.map
          (fun (sz, t) ->
            Printf.sprintf "%d%s" sz
              (match t with
              | Fall -> "F"
              | Jmp x -> "J" ^ string_of_int x
              | Br x -> "B" ^ string_of_int x
              | Return -> "R"))
          shape))

let arb_shape = QCheck.make ~print:show_shape random_shape

(* Naive dominators: iterate over all blocks, removing each and checking
   reachability. *)
let naive_dominates g a b =
  if a = b then true
  else begin
    let n = Cfg.num_blocks g in
    let seen = Array.make n false in
    let rec visit x =
      if (not seen.(x)) && x <> a then begin
        seen.(x) <- true;
        List.iter visit (Cfg.succs g x)
      end
    in
    if n > 0 then visit 0;
    (* a dominates b iff b unreachable when a removed (and b reachable at all) *)
    let reach = Cfg.reachable g in
    reach.(b) && not seen.(b)
  end

let prop_dominators =
  QCheck.Test.make ~name:"dominators match naive reference" ~count:120
    arb_shape (fun shape ->
      let f = build shape in
      let g = Cfg.make f in
      let dom = Dom.compute g in
      let reach = Cfg.reachable g in
      let n = Cfg.num_blocks g in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if reach.(a) && reach.(b) then
            if Dom.dominates dom a b <> naive_dominates g a b then ok := false
        done
      done;
      !ok)

(* Reducibility as the definition states it: deleting every edge whose
   target dominates its source leaves the reachable blocks acyclic. *)
let reference_is_reducible g dom =
  let n = Cfg.num_blocks g in
  let reach = Cfg.reachable g in
  let color = Array.make n 0 in
  let rec visit u =
    color.(u) <- 1;
    let ok =
      List.for_all
        (fun v ->
          if Dom.dominates dom v u then true
          else if color.(v) = 1 then false
          else if color.(v) = 0 then visit v
          else true)
        (Cfg.succs g u)
    in
    color.(u) <- 2;
    ok
  in
  let rec check i =
    if i >= n then true
    else if reach.(i) && color.(i) = 0 then visit i && check (i + 1)
    else check (i + 1)
  in
  check 0

let prop_reducible =
  QCheck.Test.make ~name:"reducibility matches the back-edge reference"
    ~count:300 arb_shape (fun shape ->
      let g = Cfg.make (build shape) in
      let dom = Dom.compute g in
      Loops.is_reducible g dom = reference_is_reducible g dom)

let prop_rpo =
  QCheck.Test.make ~name:"reverse postorder visits preds first in DAGs" ~count:100
    arb_shape (fun shape ->
      let f = build shape in
      let g = Cfg.make f in
      let rpo = Cfg.reverse_postorder g in
      let n = Cfg.num_blocks g in
      let pos = Array.make n 0 in
      Array.iteri (fun i b -> pos.(b) <- i) rpo;
      let dom = Dom.compute g in
      (* Weaker universal property: an idom always precedes its node. *)
      let ok = ref true in
      for b = 0 to n - 1 do
        match Dom.idom dom b with
        | Some d -> if pos.(d) >= pos.(b) then ok := false
        | None -> ()
      done;
      !ok)

(* Liveness satisfies its defining dataflow equations on random CFGs. *)
let prop_liveness_fixpoint =
  QCheck.Test.make ~name:"liveness is a fixpoint of its equations" ~count:100
    arb_shape (fun shape ->
      let f = build shape in
      let g = Cfg.make f in
      let live = Liveness.compute f in
      let n = Func.num_blocks f in
      let ok = ref true in
      for b = 0 to n - 1 do
        (* out(b) = union of in(s) over successors *)
        let out =
          List.fold_left
            (fun acc s ->
              Reg.Set.union acc (Live_oracle.to_set (Liveness.live_in live s)))
            Reg.Set.empty (Cfg.succs g b)
        in
        let live_out = Live_oracle.to_set (Liveness.live_out live b) in
        if not (Reg.Set.equal out live_out) then ok := false;
        (* in(b) = transfer of the block over out(b) *)
        let inn = Live_oracle.block_transfer (Func.block f b).instrs live_out in
        if not (Reg.Set.equal inn (Live_oracle.to_set (Liveness.live_in live b)))
        then ok := false
      done;
      !ok)

(* [Cfg.make] against the reference it replaced, over every function of
   the corpus and of Gen seeds 0-39, as codegen emits them and after
   JUMPS has replicated code in them. *)
let test_cfg_make_reference () =
  let graphs = ref 0 in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun f ->
          List.iter
            (fun f ->
              let g = Cfg.make f in
              let succ, pred = Cfg_oracle.make f in
              incr graphs;
              for i = 0 to Func.num_blocks f - 1 do
                if Cfg.succs g i <> succ.(i) || Cfg.preds g i <> pred.(i) then
                  Alcotest.failf "%s/%s: block %d" name (Func.name f) i
              done)
            [ f; fst (Replication.Jumps.run Replication.Jumps.default_config f) ])
        (Frontend.Codegen.compile_source src).Prog.funcs)
    Helpers.corpus_and_gen;
  Alcotest.(check bool) "graphs compared" true (!graphs > 100)

(* [Check] does not look for duplicate labels or a stale label index:
   building a function is what rules them out. *)
let test_with_blocks_rejects_duplicate_label () =
  let f = build [| (1, Fall); (1, Return) |] in
  let blocks = Func.blocks f in
  let dup = [| blocks.(0); { (blocks.(1)) with label = blocks.(0).label } |] in
  Alcotest.check_raises "with_blocks"
    (Invalid_argument
       (Printf.sprintf "Func.make: duplicate label %s"
          (Label.to_string blocks.(0).label)))
    (fun () -> ignore (Func.with_blocks f dup));
  let f' = Func.with_blocks f (Array.copy blocks) in
  Array.iteri
    (fun i (b : Func.block) ->
      Alcotest.(check int) "index of a label" i
        (Func.index_of_label f' b.label))
    blocks

let tests =
  ( "flow",
    [
      Alcotest.test_case "cfg make matches the reference" `Quick
        test_cfg_make_reference;
      Alcotest.test_case "cfg edges" `Quick test_cfg_edges;
      Alcotest.test_case "dominators on a diamond" `Quick test_dominators_diamond;
      Alcotest.test_case "natural loops" `Quick test_natural_loops;
      Alcotest.test_case "irreducible graph" `Quick test_irreducible;
      Alcotest.test_case "nested loops" `Quick test_nested_loops;
      Alcotest.test_case "liveness" `Quick test_liveness;
      Alcotest.test_case "checker" `Quick test_check_catches;
      Alcotest.test_case "with_blocks rejects a duplicate label" `Quick
        test_with_blocks_rejects_duplicate_label;
      QCheck_alcotest.to_alcotest prop_dominators;
      QCheck_alcotest.to_alcotest prop_reducible;
      QCheck_alcotest.to_alcotest prop_rpo;
      QCheck_alcotest.to_alcotest prop_liveness_fixpoint;
    ] )
