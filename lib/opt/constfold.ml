open Ir

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k n = if n <= 1 then k else go (k + 1) (n lsr 1) in
  go 0 n

(* Simplify one instruction; None when unchanged. *)
let simplify machine (i : Rtl.instr) : Rtl.instr option =
  let legal j = if Machine.legal_instr machine j then Some j else None in
  match i with
  | Binop (op, loc, Imm a, Imm b) -> (
    match Rtl.eval_binop op a b with
    | v -> legal (Move (loc, Imm v))
    | exception Division_by_zero -> None)
  | Binop ((Add | Sub | Or | Xor | Shl | Shr), loc, a, Imm 0) ->
    legal (Move (loc, a))
  | Binop (Add, loc, Imm 0, a) -> legal (Move (loc, a))
  | Binop ((Mul | Div), loc, a, Imm 1) -> legal (Move (loc, a))
  | Binop (Mul, loc, Imm 1, a) -> legal (Move (loc, a))
  | Binop (Mul, loc, _, Imm 0) -> legal (Move (loc, Imm 0))
  | Binop (Mul, loc, Imm 0, _) -> legal (Move (loc, Imm 0))
  | Binop (And, loc, _, Imm 0) -> legal (Move (loc, Imm 0))
  | Binop (Mul, loc, a, Imm n) when is_pow2 n ->
    legal (Binop (Shl, loc, a, Imm (log2 n)))
  | Binop (Mul, loc, Imm n, a) when is_pow2 n ->
    legal (Binop (Shl, loc, a, Imm (log2 n)))
  | Unop (op, loc, Imm a) -> legal (Move (loc, Imm (Rtl.eval_unop op a)))
  (* Canonicalize commutative immediate-first operands. *)
  | Binop (op, loc, Imm a, b) when Rtl.commutative op ->
    legal (Binop (op, loc, b, Imm a))
  | _ -> None

(* Fold branches decided by a constant comparison within the same block.
   Registers holding known constants (from [Move r, Imm]) participate, so
   the fold also fires on the RISC model where [Cmp Imm Imm] is illegal and
   never appears literally. *)
let fold_branches instrs =
  let changed = ref false in
  let resolve consts = function
    | Rtl.Imm n -> Some n
    | Rtl.Reg r -> Reg.Map.find_opt r consts
    | Rtl.Mem _ -> None
  in
  let rec go consts last_cmp acc = function
    | [] -> List.rev acc
    | (Rtl.Cmp (x, y) as i) :: rest ->
      go consts (match resolve consts x, resolve consts y with
                 | Some a, Some b -> Some (a, b)
                 | _ -> None)
        (i :: acc) rest
    | Rtl.Branch (c, l) :: rest -> (
      match last_cmp with
      | Some (a, b) ->
        changed := true;
        if Rtl.eval_cond c a b then
          (* Always taken: unconditional jump; the rest is unreachable. *)
          go consts last_cmp (Rtl.Jump l :: acc) []
        else (* Never taken: drop the branch. *)
          go consts last_cmp acc rest
      | None -> go consts last_cmp (Rtl.Branch (c, l) :: acc) rest)
    | i :: rest ->
      let kills_cc = Reg.Set.mem Reg.Cc (Rtl.defs i) in
      let consts =
        let killed = Reg.Set.fold Reg.Map.remove (Rtl.defs i) consts in
        match i with
        | Rtl.Move (Lreg d, Imm n) -> Reg.Map.add d n killed
        | _ -> killed
      in
      go consts (if kills_cc then None else last_cmp) (i :: acc) rest
  in
  let out = go Reg.Map.empty None [] instrs in
  (out, !changed)

let run machine input =
  let changed = ref false in
  let func =
    Flow.Func.map_instrs
      (fun instrs ->
        let instrs =
          List.map
            (fun i ->
              (* Iterate local simplification to a fixpoint. *)
              let rec fix i n =
                if n = 0 then i
                else
                  match simplify machine i with
                  | Some i' ->
                    changed := true;
                    fix i' (n - 1)
                  | None -> i
              in
              fix i 8)
            instrs
        in
        let instrs, c = fold_branches instrs in
        if c then changed := true;
        instrs)
      input
  in
  if !changed then (func, true) else (input, false)

(* What [fold_branches] would fold if it read the facts of the whole
   function: Copyconst's constant facts at each block's entry, pushed
   through the block to the operands of the compare a branch keys on. *)
let decidable_branches func =
  let module C = Analysis.Copyconst in
  let blocks = Flow.Func.blocks func in
  let facts =
    C.solve
      ~graph:(Flow.Cfg.graph (Flow.Cfg.make func))
      ~instrs:(Array.map (fun (b : Flow.Func.block) -> b.instrs) blocks)
      ()
  in
  let decided = ref [] in
  Array.iteri
    (fun bi (b : Flow.Func.block) ->
      let step (f, cmp) i =
        let cmp =
          match i with
          | Rtl.Cmp (x, y) -> Some (C.operand_const f x, C.operand_const f y)
          | _ when Reg.Set.mem Reg.Cc (Rtl.defs i) ->
            (* A clobber we cannot model (a call): forget the compare. *)
            None
          | Rtl.Branch (c, l) ->
            (match cmp with
            | Some (Some x, Some y) ->
              decided := (b.label, l, Rtl.eval_cond c x y) :: !decided
            | _ -> ());
            cmp
          | _ -> cmp
        in
        (C.step i f, cmp)
      in
      if C.reached facts.fact_in.(bi) then
        ignore (List.fold_left step (facts.fact_in.(bi), None) b.instrs))
    blocks;
  List.rev !decided
