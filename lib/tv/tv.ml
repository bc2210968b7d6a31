open Ir
open Flow
module Copyconst = Analysis.Copyconst
module Valnum = Analysis.Valnum

type verdict =
  | Certified
  | Unknown of { reason : string; timeout : bool }
  | Refuted of { reason : string; path : string list }

type record = { vfunc : string; vpass : string; verdict : verdict }

let verdict_name = function
  | Certified -> "certified"
  | Unknown _ -> "unknown"
  | Refuted _ -> "refuted"

let default_fuel = 10_000

(* --- normalized symbolic expressions --- *)

type side = O | N

(* A symbolic value, normalized so that independently summarized old/new
   blocks produce syntactically equal terms for provably equal values.
   [Entry r] is the (shared) value of [r] at the pair's entry when the two
   sides agree on [r]; [Local] when they are known to disagree.  [Opaque
   (k, r)] is the unknown-but-shared value [r] holds after the [k]-th
   observable effect (a call) — shared because the checker only compares
   values once the effect prefixes matched.  Loads carry a memory version
   bumped by every write, mirroring {!Analysis.Valnum}'s versioning. *)
type expr =
  | Const of int
  | Glob of string
  | Entry of Reg.t
  | Local of side * Reg.t
  | Opaque of int * Reg.t
  | Load of Rtl.width * expr * int
  | Un of Rtl.unop * expr
  | Bin of Rtl.binop * expr * expr

let rec ground = function
  | Const _ | Glob _ -> true
  | Entry _ | Local _ | Opaque _ | Load _ -> false
  | Un (_, e) -> ground e
  | Bin (_, a, b) -> ground a && ground b

let binop_str = function
  | Rtl.Add -> "+"
  | Rtl.Sub -> "-"
  | Rtl.Mul -> "*"
  | Rtl.Div -> "/"
  | Rtl.Rem -> "%"
  | Rtl.And -> "&"
  | Rtl.Or -> "|"
  | Rtl.Xor -> "^"
  | Rtl.Shl -> "<<"
  | Rtl.Shr -> ">>"

let rec expr_str = function
  | Const n -> string_of_int n
  | Glob s -> "&" ^ s
  | Entry r -> Reg.to_string r
  | Local (O, r) -> "old:" ^ Reg.to_string r
  | Local (N, r) -> "new:" ^ Reg.to_string r
  | Opaque (k, r) -> Printf.sprintf "%s'%d" (Reg.to_string r) k
  | Load (_, a, v) -> Printf.sprintf "M%d[%s]" v (expr_str a)
  | Un (Rtl.Neg, e) -> "-" ^ expr_str e
  | Un (Rtl.Not, e) -> "~" ^ expr_str e
  | Bin (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr_str a) (binop_str op) (expr_str b)

let is_const = function Const _ -> true | _ -> false

let shift_of c =
  let rec go k n = if n <= 1 then k else go (k + 1) (n lsr 1) in
  go 0 c

(* Smart constructor mirroring the rewrites the passes themselves perform
   (constant folding, algebraic identities, the Mul-by-power-of-two ==
   Shl equivalence isel and strength exploit), so both sides normalize to
   one spelling. *)
let rec mk_bin op a b =
  match (op, a, b) with
  | _, Const x, Const y -> (
    match Rtl.eval_binop op x y with
    | v -> Const v
    | exception Division_by_zero -> Bin (op, a, b))
  | _, Const _, _ when Rtl.commutative op -> mk_bin op b a
  | Rtl.Add, _, Const 0 -> a
  | Rtl.Add, Bin (Rtl.Add, x, Const c1), Const c2 ->
    mk_bin Rtl.Add x (Const (Rtl.eval_binop Rtl.Add c1 c2))
  | Rtl.Sub, _, Const 0 -> a
  | Rtl.Sub, _, Const c -> mk_bin Rtl.Add a (Const (Rtl.eval_binop Rtl.Sub 0 c))
  | Rtl.Mul, _, Const 0 -> Const 0
  | Rtl.Mul, _, Const 1 -> a
  | Rtl.Mul, _, Const c when c > 1 && c land (c - 1) = 0 ->
    Bin (Rtl.Shl, a, Const (shift_of c))
  | (Rtl.Shl | Rtl.Shr), _, Const 0 -> a
  | (Rtl.Or | Rtl.Xor), _, Const 0 -> a
  | _
    when Rtl.commutative op
         && (not (is_const b))
         && Stdlib.compare b a < 0 ->
    Bin (op, b, a)
  | _ -> Bin (op, a, b)

let mk_un op a =
  match a with Const x -> Const (Rtl.eval_unop op x) | _ -> Un (op, a)

(* Condition codes: only [Cmp] sets them, only [Branch] reads them, and a
   call may clobber them. *)
type ccv = CcEntry | CcLocal of side | CcCmp of expr * expr | CcOpaque of int

(* Observable effects of a block, in execution order.  Two matched paths
   must produce equal effect sequences. *)
type eff =
  | Estore of Rtl.width * expr * expr
  | Ecall of string * int * expr list  (* callee, arg count, sp :: args *)
  | Eenter of int * expr * expr  (* frame size, sp, fp *)
  | Eleave of expr * expr  (* sp, fp *)
  | Eret of expr * expr  (* return value, sp *)

(* --- symbolic evaluation of one block --- *)

type env = {
  sd : side;
  dset : Reg.Set.t;  (* registers the two sides disagree on at entry *)
  consts : int Reg.Map.t;  (* Copyconst-proven agreed constants *)
  mutable regs : expr Reg.Map.t;
  mutable cc : ccv;
  mutable memver : int;
  mutable effs : eff list;  (* reversed *)
  mutable neffs : int;
  mutable vn : Analysis.Valnum.state;
      (* value-numbering state threaded across catch-up extensions, so a
         merged block on one side and its constituent blocks on the other
         normalize through the same lens *)
}

let get env r =
  match Reg.Map.find_opt r env.regs with
  | Some e -> e
  | None ->
    let e =
      match Reg.Map.find_opt r env.consts with
      | Some c -> Const c
      | None -> if Reg.Set.mem r env.dset then Local (env.sd, r) else Entry r
    in
    env.regs <- Reg.Map.add r e env.regs;
    e

let set env r e = env.regs <- Reg.Map.add r e env.regs

let emit env e =
  env.effs <- e :: env.effs;
  env.neffs <- env.neffs + 1

let eval_addr env = function
  | Rtl.Based (r, d) -> mk_bin Rtl.Add (get env r) (Const d)
  | Rtl.Indexed (b, i, sc, d) ->
    mk_bin Rtl.Add
      (mk_bin Rtl.Add (get env b) (mk_bin Rtl.Mul (get env i) (Const sc)))
      (Const d)
  | Rtl.Abs (s, off) -> mk_bin Rtl.Add (Glob s) (Const off)

let eval_operand env = function
  | Rtl.Reg r -> get env r
  | Rtl.Imm n -> Const n
  | Rtl.Mem (w, a) -> Load (w, eval_addr env a, env.memver)

let store env w a v =
  emit env (Estore (w, eval_addr env a, v));
  env.memver <- env.memver + 1

let exec env i =
  match i with
  | Rtl.Move (Rtl.Lreg d, op) -> set env d (eval_operand env op)
  | Rtl.Move (Rtl.Lmem (w, a), op) -> store env w a (eval_operand env op)
  | Rtl.Lea (d, a) -> set env d (eval_addr env a)
  | Rtl.Binop (op, Rtl.Lreg d, x, y) ->
    set env d (mk_bin op (eval_operand env x) (eval_operand env y))
  | Rtl.Binop (op, Rtl.Lmem (w, a), x, y) ->
    store env w a (mk_bin op (eval_operand env x) (eval_operand env y))
  | Rtl.Unop (op, Rtl.Lreg d, x) -> set env d (mk_un op (eval_operand env x))
  | Rtl.Unop (op, Rtl.Lmem (w, a), x) ->
    store env w a (mk_un op (eval_operand env x))
  | Rtl.Cmp (x, y) -> env.cc <- CcCmp (eval_operand env x, eval_operand env y)
  | Rtl.Call (f, n) ->
    let args = List.init (min n Conv.max_args) (fun i -> get env (Conv.arg_reg i)) in
    emit env (Ecall (f, n, get env Conv.sp :: args));
    let k = env.neffs - 1 in
    Reg.Set.iter (fun r -> set env r (Opaque (k, r))) Conv.caller_save;
    env.cc <- CcOpaque k;
    env.memver <- env.memver + 1
  | Rtl.Enter n ->
    (* Enter saves the caller's fp at sp-4, sets fp := sp, sp := sp-n. *)
    let sp = get env Conv.sp and fp = get env Conv.fp in
    emit env (Eenter (n, sp, fp));
    set env Conv.fp sp;
    set env Conv.sp (mk_bin Rtl.Sub sp (Const n));
    env.memver <- env.memver + 1
  | Rtl.Leave ->
    let sp = get env Conv.sp and fp = get env Conv.fp in
    emit env (Eleave (sp, fp));
    set env Conv.sp fp;
    set env Conv.fp (Load (Rtl.Word, mk_bin Rtl.Sub fp (Const 4), env.memver));
    env.memver <- env.memver + 1
  | Rtl.Ret -> emit env (Eret (get env Conv.rv, get env Conv.sp))
  | Rtl.Nop -> ()
  | Rtl.Branch _ | Rtl.Jump _ | Rtl.Ijump _ -> ()

(* Pre-normalize with the value-numbering rewriter CSE uses, so a
   recomputation on one side and its CSE'd copy on the other summarize
   through the same lens. *)
let run_block env func idx =
  List.iter
    (fun i ->
      let vn', i', _ = Valnum.rewrite env.vn i in
      env.vn <- vn';
      exec env i')
    (Func.block func idx).Func.instrs

let summarize sd func ~dset ~dcc ~consts idx =
  let env =
    {
      sd;
      dset;
      consts;
      regs = Reg.Map.empty;
      cc = (if dcc then CcLocal sd else CcEntry);
      memver = 0;
      effs = [];
      neffs = 0;
      vn = Valnum.empty;
    }
  in
  run_block env func idx;
  env

(* --- terminators, resolved through pure-control blocks --- *)

(* Follow blocks that contain no computation at all (Nops plus at most a
   trailing Jump, or a bare fall-through) to the first block with content.
   Branch-chain and reorder shuffle exactly this kind of glue. *)
let resolve func start =
  let rec go visited i =
    if List.mem i visited then i
    else
      let rec skim = function
        | [] -> `Fall
        | [ Rtl.Jump l ] -> `Jump l
        | Rtl.Nop :: rest -> skim rest
        | _ -> `Content
      in
      match skim (Func.block func i).Func.instrs with
      | `Content -> i
      | `Jump l -> go (i :: visited) (Func.index_of_label func l)
      | `Fall -> if i + 1 < Func.num_blocks func then go (i :: visited) (i + 1) else i
  in
  go [] start

type rterm =
  | Rgoto of int
  | Rtaken of int  (* a branch discharged by constant condition codes *)
  | Rbranch of Rtl.cond * int * int  (* cond, taken, fallthrough *)
  | Rijump of expr * int array
  | Rret
  | Rstuck  (* control falls off the function: ill-formed, never matched *)

(* A block the checker may inline into the current pair without touching
   the effect sequence: computation and control only. *)
let effect_free func idx =
  List.for_all
    (fun i ->
      match i with
      | Rtl.Move (Rtl.Lmem _, _)
      | Rtl.Binop (_, Rtl.Lmem _, _, _)
      | Rtl.Unop (_, Rtl.Lmem _, _)
      | Rtl.Call _ | Rtl.Enter _ | Rtl.Leave | Rtl.Ret -> false
      | _ -> true)
    (Func.block func idx).Func.instrs

let resolved_term func env idx =
  let target l = resolve func (Func.index_of_label func l) in
  match Func.terminator (Func.block func idx) with
  | Some (Rtl.Jump l) -> Rgoto (target l)
  | Some (Rtl.Branch (c, l)) ->
    if idx + 1 >= Func.num_blocks func then Rstuck
    else
      let t = target l and f = resolve func (idx + 1) in
      if t = f then Rgoto t
      else (
        match env.cc with
        | CcCmp (Const x, Const y) ->
          Rtaken (if Rtl.eval_cond c x y then t else f)
        | _ -> Rbranch (c, t, f))
  | Some (Rtl.Ijump (r, tbl)) -> Rijump (get env r, Array.map target tbl)
  | Some Rtl.Ret -> Rret
  | Some _ -> Rstuck
  | None -> if idx + 1 < Func.num_blocks func then Rgoto (resolve func (idx + 1)) else Rstuck

(* Do the two branch decisions correspond, directly or with the arms
   swapped?  Handles condition negation, operand swap, and both. *)
let branch_match cco ccn c c' =
  let operands =
    match (cco, ccn) with
    | CcEntry, CcEntry -> Some `Same
    | CcOpaque i, CcOpaque j when i = j -> Some `Same
    | CcCmp (a, b), CcCmp (a', b') ->
      if a = a' && b = b' then Some `Same
      else if a = b' && b = a' then Some `Swap
      else None
    | _ -> None
  in
  match operands with
  | None -> None
  | Some `Same ->
    if c' = c then Some `Straight
    else if c' = Rtl.negate_cond c then Some `Negated
    else None
  | Some `Swap ->
    if c' = Rtl.swap_cond c then Some `Straight
    else if c' = Rtl.negate_cond (Rtl.swap_cond c) then Some `Negated
    else None

(* --- effect comparison --- *)

(* Strong mismatches are proofs of inequivalence (different effect
   sequences, or ground values that provably differ); weak ones only mean
   the checker cannot ground the terms, and must stay Unknown. *)
type outcome = Agree | Strong of string | Weak of string

let cmp_value what w a b =
  if a = b then Agree
  else
    let a, b =
      (* Byte stores truncate: compare what the memory cell will hold. *)
      match (w, a, b) with
      | Some Rtl.Byte, Const x, Const y -> (Const (x land 255), Const (y land 255))
      | _ -> (a, b)
    in
    if a = b then Agree
    else if ground a && ground b then
      Strong (Printf.sprintf "%s differs: %s vs %s" what (expr_str a) (expr_str b))
    else
      Weak
        (Printf.sprintf "%s not provably equal: %s vs %s" what (expr_str a)
           (expr_str b))

let seq_outcomes xs =
  List.fold_left
    (fun acc x ->
      match (acc, x) with
      | Strong _, _ -> acc
      | _, Strong _ -> x
      | Weak _, _ -> acc
      | Agree, o -> o)
    Agree xs

let cmp_eff e e' =
  match (e, e') with
  | Estore (w, a, v), Estore (w', a', v') ->
    if w <> w' then Strong "store width differs"
    else seq_outcomes [ cmp_value "store address" None a a'; cmp_value "stored value" (Some w) v v' ]
  | Ecall (f, n, args), Ecall (f', n', args') ->
    if f <> f' || n <> n' then
      Strong (Printf.sprintf "call differs: %s/%d vs %s/%d" f n f' n')
    else
      seq_outcomes (List.map2 (fun a b -> cmp_value ("argument to " ^ f) None a b) args args')
  | Eenter (n, sp, fp), Eenter (n', sp', fp') ->
    if n <> n' then Strong (Printf.sprintf "frame size differs: %d vs %d" n n')
    else seq_outcomes [ cmp_value "sp at Enter" None sp sp'; cmp_value "fp at Enter" None fp fp' ]
  | Eleave (sp, fp), Eleave (sp', fp') ->
    seq_outcomes [ cmp_value "sp at Leave" None sp sp'; cmp_value "fp at Leave" None fp fp' ]
  | Eret (rv, sp), Eret (rv', sp') ->
    seq_outcomes [ cmp_value "return value" None rv rv'; cmp_value "sp at Ret" None sp sp' ]
  | _ ->
    let kind = function
      | Estore _ -> "store"
      | Ecall (f, _, _) -> "call " ^ f
      | Eenter _ -> "Enter"
      | Eleave _ -> "Leave"
      | Eret _ -> "Ret"
    in
    Strong (Printf.sprintf "effect kind differs: %s vs %s" (kind e) (kind e'))

let cmp_effects effs effs' =
  let l = List.length effs and l' = List.length effs' in
  if l <> l' then
    Strong (Printf.sprintf "effect count differs: %d vs %d" l l')
  else seq_outcomes (List.map2 cmp_eff effs effs')

(* --- Copyconst seeding, memoized by physical function identity --- *)

let facts_cache : (Func.t, Copyconst.facts array option) Analysis.Cache.t =
  Analysis.Cache.create ~size:8 ()

let copyconst_facts func =
  Analysis.Cache.find facts_cache func (fun func ->
      let cfg = Cfg.make func in
      let instrs = Array.map (fun b -> b.Func.instrs) (Func.blocks func) in
      match Copyconst.solve ~graph:(Cfg.graph cfg) ~instrs () with
      | r -> Some r.Copyconst.fact_in
      | exception Analysis.Dataflow.Diverged _ -> None)

(* Registers both sides can prove hold the same constant at this pair's
   entry: those seeds discharge the branch conditions the pass folded. *)
let seeded_consts facts_o facts_n bf af o n =
  match (facts_o, facts_n) with
  | Some fo, Some fn when Copyconst.reached fo.(o) && Copyconst.reached fn.(n) ->
    let used acc b =
      List.fold_left
        (fun acc i -> Reg.Set.union acc (Rtl.uses i))
        acc b.Func.instrs
    in
    let cand = used (used Reg.Set.empty (Func.block bf o)) (Func.block af n) in
    Reg.Set.fold
      (fun r acc ->
        match (Copyconst.lookup fo.(o) r, Copyconst.lookup fn.(n) r) with
        | Some (Copyconst.Const c), Some (Copyconst.Const c') when c = c' ->
          Reg.Map.add r c acc
        | _ -> acc)
      cand Reg.Map.empty
  | _ -> Reg.Map.empty

(* --- the product worklist --- *)

type pinfo = {
  mutable d : Reg.Set.t;  (* disagreement set at pair entry *)
  mutable dcc : bool;  (* condition codes disagree at pair entry *)
  parent : (int * int) option;  (* first discoverer, for the path *)
}

let cc_agrees a b =
  match (a, b) with
  | CcEntry, CcEntry -> true
  | CcOpaque i, CcOpaque j -> i = j
  | CcCmp (x, y), CcCmp (x', y') -> x = x' && y = y'
  | _ -> false

(* The registers whose final values the two summaries cannot prove equal. *)
let disagreements eo en =
  let keys m = Reg.Map.fold (fun r _ acc -> Reg.Set.add r acc) m Reg.Set.empty in
  let dom = Reg.Set.union (keys eo.regs) (keys en.regs) in
  Reg.Set.filter (fun r -> get eo r <> get en r) dom

let check ~fuel ~before ~after =
  let facts_o = copyconst_facts before and facts_n = copyconst_facts after in
  let pairs : (int * int, pinfo) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  let entry = (resolve before 0, resolve after 0) in
  Hashtbl.add pairs entry { d = Reg.Set.empty; dcc = false; parent = None };
  Queue.add entry q;
  let pair_name (o, n) =
    Printf.sprintf "%s/%s"
      (Label.to_string (Func.block before o).Func.label)
      (Label.to_string (Func.block after n).Func.label)
  in
  let path key =
    let rec walk key acc =
      let info = Hashtbl.find pairs key in
      let acc = pair_name key :: acc in
      match info.parent with None -> acc | Some p -> walk p acc
    in
    walk key []
  in
  let enqueue parent d dcc key =
    match Hashtbl.find_opt pairs key with
    | None ->
      Hashtbl.add pairs key { d; dcc; parent = Some parent };
      Queue.add key q
    | Some info ->
      if (not (Reg.Set.subset d info.d)) || (dcc && not info.dcc) then begin
        info.d <- Reg.Set.union info.d d;
        info.dcc <- info.dcc || dcc;
        Queue.add key q
      end
  in
  let refuted = ref None in
  let unknown = ref None in
  let timeout = ref false in
  let note key msg =
    if !unknown = None then
      unknown := Some (Printf.sprintf "blocks %s: %s" (pair_name key) msg)
  in
  let fuel = ref fuel in
  (try
     while (not (Queue.is_empty q)) && !refuted = None do
       if !fuel <= 0 then begin
         timeout := true;
         raise Exit
       end;
       decr fuel;
       let ((o, n) as key) = Queue.pop q in
       let info = Hashtbl.find pairs key in
       let consts = seeded_consts facts_o facts_n before after o n in
       let eo = summarize O before ~dset:info.d ~dcc:info.dcc ~consts o in
       let en = summarize N after ~dset:info.d ~dcc:info.dcc ~consts n in
       (* Catch-up stepping: replication folds copies of whole successor
          blocks into a predecessor, so one side's block can carry several
          of the other side's blocks worth of effects, and a branch the
          copy made decidable in context (a rotated loop's entry test) can
          sit one block downstream on the other side.  While the effect
          counts differ, walk the short side through its unconditional
          transfers; when they agree, inline effect-free goto targets on
          either side so both branch decisions are taken with the same
          context.  Terminators and successors are then read from wherever
          each side ended up. *)
       let oi = ref o and ni = ref n in
       let ext = ref 8 in
       let step_o next =
         decr ext;
         oi := next;
         run_block eo before next
       and step_n next =
         decr ext;
         ni := next;
         run_block en after next
       in
       let rec catch_up () =
         if !ext > 0 then
           if eo.neffs < en.neffs then (
             match resolved_term before eo !oi with
             | Rgoto next | Rtaken next ->
               step_o next;
               catch_up ()
             | _ -> ())
           else if en.neffs < eo.neffs then (
             match resolved_term after en !ni with
             | Rgoto next | Rtaken next ->
               step_n next;
               catch_up ()
             | _ -> ())
           else
             (* Counts agree: inline an effect-free goto target only when
                the other side has already consumed a test (a pending or
                discharged branch) — walking a plain goto/goto pair would
                second-guess an alignment that is usually already right. *)
             match
               (resolved_term before eo !oi, resolved_term after en !ni)
             with
             | Rgoto a, (Rbranch _ | Rtaken _) when effect_free before a ->
               step_o a;
               catch_up ()
             | (Rbranch _ | Rtaken _), Rgoto b when effect_free after b ->
               step_n b;
               catch_up ()
             | _ -> ()
       in
       catch_up ();
       let effects_cmp =
         if eo.neffs <> en.neffs && !ext = 0 then
           (* The walk budget ran out before the counts lined up: block
              granularity would not align, which is a limitation of the
              checker, never a proof. *)
           Weak
             (Printf.sprintf "effect counts do not align: %d vs %d" eo.neffs
                en.neffs)
         else cmp_effects (List.rev eo.effs) (List.rev en.effs)
       in
       match effects_cmp with
       | Strong msg -> refuted := Some (key, msg)
       | Weak msg -> note key msg
       | Agree -> (
         let succs =
           match (resolved_term before eo !oi, resolved_term after en !ni) with
           | (Rgoto a | Rtaken a), (Rgoto b | Rtaken b) -> Some [ (a, b) ]
           | Rret, Rret -> Some []
           | Rbranch (c, t, f), Rbranch (c', t', f') -> (
             match branch_match eo.cc en.cc c c' with
             | Some `Straight -> Some [ (t, t'); (f, f') ]
             | Some `Negated -> Some [ (t, f'); (f, t') ]
             | None -> None)
           | Rijump (e, tbl), Rijump (e', tbl')
             when e = e' && Array.length tbl = Array.length tbl' ->
             Some (List.init (Array.length tbl) (fun i -> (tbl.(i), tbl'.(i))))
           | _ -> None
         in
         match succs with
         | None -> note key "terminators do not correspond"
         | Some ss ->
           let d' = disagreements eo en in
           let dcc' = not (cc_agrees eo.cc en.cc) in
           List.iter (enqueue key d' dcc') ss)
     done
   with Exit -> ());
  match !refuted with
  | Some (key, msg) ->
    Refuted
      {
        reason = Printf.sprintf "%s at blocks %s" msg (pair_name key);
        path = path key;
      }
  | None ->
    if !timeout then
      Unknown { reason = "pair budget exhausted before closure"; timeout = true }
    else (
      match !unknown with
      | Some reason -> Unknown { reason; timeout = false }
      | None -> Certified)

let certify_pass ?(fuel = default_fuel) ~before ~after () =
  try check ~fuel ~before ~after
  with exn ->
    Unknown
      { reason = "checker raised " ^ Printexc.to_string exn; timeout = false }
