(* The expression passes against [Expr_oracle]: on the same input, the new
   [Opt.Isel], [Opt.Cse] and [Opt.Gcse] must produce the same function and
   the same change flag as the implementations they replaced, and
   [Analysis.Avail] the same universe, entry sets and visit count. *)

open Ir
open Flow

(* [f] with a register supply of its own at the same next index, so two
   runs of one input draw the same fresh temporaries. *)
let fork f =
  Func.make ~name:(Func.name f) ~blocks:(Func.blocks f)
    ~lsupply:(Func.lsupply f)
    ~vsupply:(Reg.Supply.create_from (Reg.Supply.next_index (Func.vsupply f)))

(* A key printed as the instruction computing it into [cc]. *)
let keys_string ks =
  String.concat "; "
    (List.map
       (fun k ->
         Rtl.instr_to_string
           (match k with
           | Analysis.Avail.Kbinop (op, a, b) ->
             Rtl.Binop (op, Lreg Reg.Cc, a, b)
           | Kunop (op, a) -> Rtl.Unop (op, Lreg Reg.Cc, a)
           | Klea a -> Rtl.Lea (Reg.Cc, a)))
       ks)

let check_avail what f =
  let graph = Cfg.graph (Cfg.make f) in
  let instrs = Array.map (fun (b : Func.block) -> b.instrs) (Func.blocks f) in
  let a = Analysis.Avail.solve ~graph ~instrs () in
  let o = Expr_oracle.Avail.solve ~graph ~instrs () in
  let same what' want got =
    if want <> got then
      Alcotest.failf "%s: %s\n  oracle: %s\n  got:    %s" what what'
        (keys_string want) (keys_string got)
  in
  let elements = Expr_oracle.Avail.Key_set.elements in
  same "universe" (elements o.universe) (Array.to_list (Analysis.Avail.keys a));
  Array.iteri
    (fun i s ->
      same (Printf.sprintf "avail_in %d" i) (elements s)
        (Analysis.Avail.avail_in a i))
    o.avail_in;
  let visits = (Analysis.Avail.stats a).visits in
  if visits <> o.stats.visits then
    Alcotest.failf "%s: %d visits, oracle %d" what visits o.stats.visits

(* How many checked runs of each pass changed the function. *)
let changes = Hashtbl.create 4

(* Run [pass] and [oracle] on forks of [f]; the result must agree.  Returns
   the pass's output, the input of the next check. *)
let check_pass name what pass oracle f =
  let got, changed = pass (fork f) in
  let want, want_changed = oracle (fork f) in
  let want_s = Func.to_string want and got_s = Func.to_string got in
  if want_s <> got_s then
    Alcotest.failf "%s: function\n--- oracle\n%s\n--- got\n%s" what want_s
      got_s;
  if changed <> want_changed then
    Alcotest.failf "%s: changed %b, oracle %b" what changed want_changed;
  if changed then
    Hashtbl.replace changes name
      (1 + Option.value (Hashtbl.find_opt changes name) ~default:0);
  got

(* isel, cse, gcse and isel again, each on the previous one's output, so
   the unoptimized inputs give the rewrites plenty to do. *)
let check_chain what machine f =
  let isel =
    check_pass "isel" (what ^ "/isel") (Opt.Isel.run machine)
      (Expr_oracle.Isel.run machine)
  in
  let f = isel f in
  let f = check_pass "cse" (what ^ "/cse") Opt.Cse.run Expr_oracle.Cse.run f in
  check_avail (what ^ "/avail") f;
  let f =
    check_pass "gcse" (what ^ "/gcse") Opt.Gcse.run Expr_oracle.Gcse.run f
  in
  ignore (isel f)

let test_matches_oracle () =
  let sources =
    List.map
      (fun (b : Programs.Suite.benchmark) -> (b.name, b.source))
      Programs.Suite.all
    @ List.init 40 (fun seed ->
          ( Printf.sprintf "gen%d" seed,
            Harness.Gen.to_c
              (Harness.Gen.generate (Random.State.make [| seed |])) ))
  in
  let funcs = ref 0 in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun machine ->
          let where f =
            Printf.sprintf "%s/%s/%s" name machine.Machine.short (Func.name f)
          in
          (* The frontend's output, legalized as the driver's first pass
             leaves it. *)
          List.iter
            (fun f ->
              incr funcs;
              check_chain (where f ^ "/input") machine
                (Opt.Legalize.run machine f))
            (Frontend.Codegen.compile_source src).Prog.funcs;
          (* The optimizer's output before allocation, at each level. *)
          List.iter
            (fun level ->
              List.iter
                (fun f ->
                  incr funcs;
                  check_chain
                    (where f ^ "/" ^ Opt.Driver.level_name level)
                    machine f)
                (Opt.Driver.compile
                   { Opt.Driver.default_options with level; allocate = false }
                   machine src)
                  .Prog.funcs)
            Helpers.levels)
        Helpers.machines)
    sources;
  Printf.printf "%d functions checked\n" !funcs;
  List.iter
    (fun name ->
      let n = Option.value (Hashtbl.find_opt changes name) ~default:0 in
      Printf.printf "%s changed %d of them\n" name n;
      Alcotest.(check bool) (name ^ " changed some function") true (n > 0))
    [ "isel"; "cse"; "gcse" ]

let tests =
  ( "expr",
    [
      Alcotest.test_case "passes match expr_oracle" `Quick
        test_matches_oracle;
    ] )
