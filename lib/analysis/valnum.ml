open Ir

(* Versioned operands make stale table entries unmatchable. *)
type varg =
  | Vimm of int
  | Vreg of Reg.t * int  (** register and its version at key creation *)

type vaddr =
  | Vbased of Reg.t * int * int
  | Vindexed of Reg.t * int * Reg.t * int * int * int
  | Vabs of string * int

type key =
  | Kbinop of Rtl.binop * varg * varg
  | Kunop of Rtl.unop * varg
  | Klea of vaddr
  | Kload of Rtl.width * vaddr * int  (** memory version *)

(* A total order for the table's keys, cheaper than polymorphic
   [compare] on the whole key (comparisons at the immediate types
   [Rtl.binop], [Rtl.unop] and [Rtl.width] compile to integer ones).
   Nothing iterates over the table, so which order this is never reaches
   the output. *)
let compare_reg r v s w =
  let c = Reg.compare r s in
  if c <> 0 then c else Int.compare v w

let compare_varg a b =
  match a, b with
  | Vimm x, Vimm y -> Int.compare x y
  | Vreg (r, v), Vreg (s, w) -> compare_reg r v s w
  | Vimm _, Vreg _ -> -1
  | Vreg _, Vimm _ -> 1

let vaddr_tag = function Vbased _ -> 0 | Vindexed _ -> 1 | Vabs _ -> 2

let compare_vaddr a b =
  match a, b with
  | Vbased (r, v, d), Vbased (s, w, e) ->
    let c = compare_reg r v s w in
    if c <> 0 then c else Int.compare d e
  | Vindexed (b1, v1, i1, u1, s1, d1), Vindexed (b2, v2, i2, u2, s2, d2) ->
    let c = compare_reg b1 v1 b2 v2 in
    if c <> 0 then c
    else
      let c = compare_reg i1 u1 i2 u2 in
      if c <> 0 then c
      else
        let c = Int.compare s1 s2 in
        if c <> 0 then c else Int.compare d1 d2
  | Vabs (x, o), Vabs (y, p) ->
    let c = String.compare x y in
    if c <> 0 then c else Int.compare o p
  | _ -> Int.compare (vaddr_tag a) (vaddr_tag b)

let key_tag = function Kbinop _ -> 0 | Kunop _ -> 1 | Klea _ -> 2 | Kload _ -> 3

let compare_key a b =
  match a, b with
  | Kbinop (o1, x1, y1), Kbinop (o2, x2, y2) ->
    let c = compare (o1 : Rtl.binop) o2 in
    if c <> 0 then c
    else
      let c = compare_varg x1 x2 in
      if c <> 0 then c else compare_varg y1 y2
  | Kunop (o1, x1), Kunop (o2, x2) ->
    let c = compare (o1 : Rtl.unop) o2 in
    if c <> 0 then c else compare_varg x1 x2
  | Klea a1, Klea a2 -> compare_vaddr a1 a2
  | Kload (w1, a1, m1), Kload (w2, a2, m2) ->
    let c = compare (w1 : Rtl.width) w2 in
    if c <> 0 then c
    else
      let c = compare_vaddr a1 a2 in
      if c <> 0 then c else Int.compare m1 m2
  | _ -> Int.compare (key_tag a) (key_tag b)

module Key_map = Map.Make (struct
  type t = key

  let compare = compare_key
end)

type state = {
  versions : int Reg.Map.t;
  memver : int;
  table : (Reg.t * int) Key_map.t;  (** key -> holding reg, reg version *)
}

let empty = { versions = Reg.Map.empty; memver = 0; table = Key_map.empty }

let version st r =
  match Reg.Map.find_opt r st.versions with Some v -> v | None -> 0

let bump st r =
  { st with versions = Reg.Map.add r (version st r + 1) st.versions }

let varg st = function
  | Rtl.Reg r -> Some (Vreg (r, version st r))
  | Rtl.Imm n -> Some (Vimm n)
  | Rtl.Mem _ -> None

let vaddr st = function
  | Rtl.Based (r, d) -> Vbased (r, version st r, d)
  | Rtl.Indexed (b, i, s, d) -> Vindexed (b, version st b, i, version st i, s, d)
  | Rtl.Abs (s, o) -> Vabs (s, o)

(* The key computed by an instruction into a register, if any. *)
let key_of st (i : Rtl.instr) =
  match i with
  | Rtl.Binop (op, Lreg d, a, b) -> (
    match varg st a, varg st b with
    | Some va, Some vb ->
      let va, vb =
        (* Canonical order for commutative operators. *)
        if Rtl.commutative op && compare vb va < 0 then (vb, va) else (va, vb)
      in
      Some (d, Kbinop (op, va, vb))
    | _ -> None)
  | Rtl.Unop (op, Lreg d, a) -> (
    match varg st a with Some va -> Some (d, Kunop (op, va)) | None -> None)
  | Rtl.Lea (d, a) -> Some (d, Klea (vaddr st a))
  | Rtl.Move (Lreg d, Mem (w, a)) -> Some (d, Kload (w, vaddr st a, st.memver))
  | _ -> None

let after_effects st i =
  let st = ref st in
  Rtl.iter_defs (fun r -> st := bump !st r) i;
  let st = !st in
  if Rtl.writes_mem i || (match i with Rtl.Call _ -> true | _ -> false) then
    { st with memver = st.memver + 1 }
  else st

let rewrite st i =
  match key_of st i with
  | None -> (after_effects st i, i, false)
  | Some (d, key) -> (
    match Key_map.find_opt key st.table with
    | Some (r, rv) when version st r = rv && not (Reg.equal r d) ->
      let st = after_effects st i in
      (st, Rtl.Move (Lreg d, Reg r), true)
    | _ ->
      let st = after_effects st i in
      (* Record after bumping: d's new version holds the value. *)
      let st = { st with table = Key_map.add key (d, version st d) st.table } in
      (st, i, false))
