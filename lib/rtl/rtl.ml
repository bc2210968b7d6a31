type width = Byte | Word

type addr =
  | Based of Reg.t * int
  | Indexed of Reg.t * Reg.t * int * int
  | Abs of string * int

type operand = Reg of Reg.t | Imm of int | Mem of width * addr

type loc = Lreg of Reg.t | Lmem of width * addr

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr

type unop = Neg | Not

type cond = Eq | Ne | Lt | Le | Gt | Ge

type instr =
  | Move of loc * operand
  | Lea of Reg.t * addr
  | Binop of binop * loc * operand * operand
  | Unop of unop * loc * operand
  | Cmp of operand * operand
  | Branch of cond * Label.t
  | Jump of Label.t
  | Ijump of Reg.t * Label.t array
  | Call of string * int
  | Ret
  | Enter of int
  | Leave
  | Nop

let equal_instr (a : instr) (b : instr) = a = b

let negate_cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let swap_cond = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

let eval_cond c a b =
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let eval_binop op a b =
  match op with
  | Add -> Arith.add a b
  | Sub -> Arith.sub a b
  | Mul -> Arith.mul a b
  | Div -> Arith.div a b
  | Rem -> Arith.rem a b
  | And -> Arith.logand a b
  | Or -> Arith.logor a b
  | Xor -> Arith.logxor a b
  | Shl -> Arith.shl a b
  | Shr -> Arith.shr a b

let eval_unop op a =
  match op with Neg -> Arith.neg a | Not -> Arith.lognot a

let commutative = function
  | Add | Mul | And | Or | Xor -> true
  | Sub | Div | Rem | Shl | Shr -> false

(* Register occurrences. *)

let add_addr_regs acc = function
  | Based (r, _) -> Reg.Set.add r acc
  | Indexed (b, i, _, _) -> Reg.Set.add b (Reg.Set.add i acc)
  | Abs _ -> acc

let add_operand_regs acc = function
  | Reg r -> Reg.Set.add r acc
  | Imm _ -> acc
  | Mem (_, a) -> add_addr_regs acc a

let addr_regs a = add_addr_regs Reg.Set.empty a
let operand_regs o = add_operand_regs Reg.Set.empty o

(* A memory destination *reads* its address registers. *)
let loc_addr_regs acc = function
  | Lreg _ -> acc
  | Lmem (_, a) -> add_addr_regs acc a

let loc_def = function Lreg r -> Reg.Set.singleton r | Lmem _ -> Reg.Set.empty

let call_arg_regs nargs =
  List.filteri (fun i _ -> i < nargs) Conv.arg_regs |> Reg.Set.of_list

let uses = function
  | Move (l, src) -> add_operand_regs (loc_addr_regs Reg.Set.empty l) src
  | Lea (_, a) -> add_addr_regs Reg.Set.empty a
  | Binop (_, l, a, b) ->
    add_operand_regs (add_operand_regs (loc_addr_regs Reg.Set.empty l) a) b
  | Unop (_, l, a) -> add_operand_regs (loc_addr_regs Reg.Set.empty l) a
  | Cmp (a, b) -> add_operand_regs (add_operand_regs Reg.Set.empty a) b
  | Branch _ -> Reg.Set.singleton Reg.Cc
  | Jump _ -> Reg.Set.empty
  | Ijump (r, _) -> Reg.Set.singleton r
  | Call (_, nargs) -> Reg.Set.add Conv.sp (call_arg_regs nargs)
  | Ret -> Reg.Set.of_list [ Conv.rv; Conv.sp ]
  | Enter _ -> Reg.Set.of_list [ Conv.fp; Conv.sp ]
  | Leave -> Reg.Set.singleton Conv.fp
  | Nop -> Reg.Set.empty

let defs = function
  | Move (l, _) | Binop (_, l, _, _) | Unop (_, l, _) -> loc_def l
  | Lea (r, _) -> Reg.Set.singleton r
  | Cmp _ -> Reg.Set.singleton Reg.Cc
  | Branch _ | Jump _ | Ijump _ | Ret | Nop -> Reg.Set.empty
  | Call _ -> Conv.caller_save
  | Enter _ | Leave -> Reg.Set.of_list [ Conv.fp; Conv.sp ]

(* Non-allocating twins of [uses]/[defs] for the hot dataflow paths.  A
   register may be visited more than once (e.g. [x + x]). *)

let iter_addr_regs f = function
  | Based (r, _) -> f r
  | Indexed (b, i, _, _) ->
    f b;
    f i
  | Abs _ -> ()

let iter_operand_regs f = function
  | Reg r -> f r
  | Imm _ -> ()
  | Mem (_, a) -> iter_addr_regs f a

let iter_loc_addr_regs f = function
  | Lreg _ -> ()
  | Lmem (_, a) -> iter_addr_regs f a

let arg_regs = Array.of_list Conv.arg_regs

let iter_uses f = function
  | Move (l, src) ->
    iter_loc_addr_regs f l;
    iter_operand_regs f src
  | Lea (_, a) -> iter_addr_regs f a
  | Binop (_, l, a, b) ->
    iter_loc_addr_regs f l;
    iter_operand_regs f a;
    iter_operand_regs f b
  | Unop (_, l, a) ->
    iter_loc_addr_regs f l;
    iter_operand_regs f a
  | Cmp (a, b) ->
    iter_operand_regs f a;
    iter_operand_regs f b
  | Branch _ -> f Reg.Cc
  | Jump _ | Nop -> ()
  | Ijump (r, _) -> f r
  | Call (_, nargs) ->
    for i = 0 to min nargs (Array.length arg_regs) - 1 do
      f arg_regs.(i)
    done;
    f Conv.sp
  | Ret ->
    f Conv.rv;
    f Conv.sp
  | Enter _ ->
    f Conv.fp;
    f Conv.sp
  | Leave -> f Conv.fp

let iter_defs f = function
  | Move (l, _) | Binop (_, l, _, _) | Unop (_, l, _) -> (
    match l with Lreg r -> f r | Lmem _ -> ())
  | Lea (r, _) -> f r
  | Cmp _ -> f Reg.Cc
  | Branch _ | Jump _ | Ijump _ | Ret | Nop -> ()
  | Call _ -> Reg.Set.iter f Conv.caller_save
  | Enter _ | Leave ->
    f Conv.fp;
    f Conv.sp

let map_addr f = function
  | Based (r, d) -> Based (f r, d)
  | Indexed (b, i, s, d) -> Indexed (f b, f i, s, d)
  | Abs _ as a -> a

let map_operand f = function
  | Reg r -> Reg (f r)
  | Imm _ as o -> o
  | Mem (w, a) -> Mem (w, map_addr f a)

let map_loc f = function
  | Lreg r -> Lreg (f r)
  | Lmem (w, a) -> Lmem (w, map_addr f a)

let map_regs f = function
  | Move (l, s) -> Move (map_loc f l, map_operand f s)
  | Lea (r, a) -> Lea (f r, map_addr f a)
  | Binop (op, l, a, b) ->
    Binop (op, map_loc f l, map_operand f a, map_operand f b)
  | Unop (op, l, a) -> Unop (op, map_loc f l, map_operand f a)
  | Cmp (a, b) -> Cmp (map_operand f a, map_operand f b)
  | Ijump (r, tbl) -> Ijump (f r, tbl)
  | (Branch _ | Jump _ | Call _ | Ret | Enter _ | Leave | Nop) as i -> i

let writes_mem = function
  | Move (Lmem _, _) | Binop (_, Lmem _, _, _) | Unop (_, Lmem _, _) -> true
  | Move (Lreg _, _)
  | Binop (_, Lreg _, _, _)
  | Unop (_, Lreg _, _)
  | Lea _ | Cmp _ | Branch _ | Jump _ | Ijump _ | Call _ | Ret | Enter _
  | Leave | Nop ->
    false

let operand_reads_mem = function Mem _ -> true | Reg _ | Imm _ -> false

let reads_mem = function
  | Move (_, s) | Unop (_, _, s) -> operand_reads_mem s
  | Binop (_, _, a, b) | Cmp (a, b) ->
    operand_reads_mem a || operand_reads_mem b
  | Lea _ | Branch _ | Jump _ | Ijump _ | Nop -> false
  (* Calls may read anything; Enter/Leave touch the saved frame pointer. *)
  | Call _ | Ret | Enter _ | Leave -> true

let is_transfer = function
  | Branch _ | Jump _ | Ijump _ | Ret -> true
  | Move _ | Lea _ | Binop _ | Unop _ | Cmp _ | Call _ | Enter _ | Leave | Nop
    ->
    false

let is_pure = function
  | Move (Lreg _, _) | Lea _ | Binop (_, Lreg _, _, _) | Unop (_, Lreg _, _)
  | Cmp _ | Nop ->
    true
  | Move (Lmem _, _)
  | Binop (_, Lmem _, _, _)
  | Unop (_, Lmem _, _)
  | Branch _ | Jump _ | Ijump _ | Call _ | Ret | Enter _ | Leave ->
    false

let targets = function
  | Branch (_, l) | Jump l -> [ l ]
  | Ijump (_, tbl) -> Array.to_list tbl
  | Move _ | Lea _ | Binop _ | Unop _ | Cmp _ | Call _ | Ret | Enter _ | Leave
  | Nop ->
    []

let map_labels f = function
  | Branch (c, l) -> Branch (c, f l)
  | Jump l -> Jump (f l)
  | Ijump (r, tbl) -> Ijump (r, Array.map f tbl)
  | ( Move _ | Lea _ | Binop _ | Unop _ | Cmp _ | Call _ | Ret | Enter _
    | Leave | Nop ) as i ->
    i

(* Printing, in the paper's RTL flavour. *)

let string_of_binop = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"

let string_of_cond = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pp_addr ppf = function
  | Based (r, 0) -> Fmt.pf ppf "%a" Reg.pp r
  | Based (r, d) -> Fmt.pf ppf "%a%+d" Reg.pp r d
  | Indexed (b, i, s, 0) -> Fmt.pf ppf "%a+%a*%d" Reg.pp b Reg.pp i s
  | Indexed (b, i, s, d) -> Fmt.pf ppf "%a+%a*%d%+d" Reg.pp b Reg.pp i s d
  | Abs (s, 0) -> Fmt.pf ppf "_%s" s
  | Abs (s, d) -> Fmt.pf ppf "_%s%+d" s d

let width_letter = function Byte -> 'B' | Word -> 'W'

let pp_operand ppf = function
  | Reg r -> Reg.pp ppf r
  | Imm n -> Fmt.int ppf n
  | Mem (w, a) -> Fmt.pf ppf "%c[%a]" (width_letter w) pp_addr a

let pp_loc ppf = function
  | Lreg r -> Reg.pp ppf r
  | Lmem (w, a) -> Fmt.pf ppf "%c[%a]" (width_letter w) pp_addr a

let pp_instr ppf = function
  | Move (l, s) -> Fmt.pf ppf "%a=%a;" pp_loc l pp_operand s
  | Lea (r, a) -> Fmt.pf ppf "%a=&[%a];" Reg.pp r pp_addr a
  | Binop (op, l, a, b) ->
    Fmt.pf ppf "%a=%a%s%a;" pp_loc l pp_operand a (string_of_binop op)
      pp_operand b
  | Unop (Neg, l, a) -> Fmt.pf ppf "%a=-%a;" pp_loc l pp_operand a
  | Unop (Not, l, a) -> Fmt.pf ppf "%a=~%a;" pp_loc l pp_operand a
  | Cmp (a, b) -> Fmt.pf ppf "NZ=%a?%a;" pp_operand a pp_operand b
  | Branch (c, l) -> Fmt.pf ppf "PC=NZ%s0,%a;" (string_of_cond c) Label.pp l
  | Jump l -> Fmt.pf ppf "PC=%a;" Label.pp l
  | Ijump (r, tbl) ->
    Fmt.pf ppf "PC=T[%a]{%a};" Reg.pp r
      Fmt.(array ~sep:comma Label.pp)
      tbl
  | Call (f, n) -> Fmt.pf ppf "CALL _%s,%d;" f n
  | Ret -> Fmt.pf ppf "PC=RT;"
  | Enter n -> Fmt.pf ppf "ENTER %d;" n
  | Leave -> Fmt.pf ppf "LEAVE;"
  | Nop -> Fmt.pf ppf "NOP;"

let instr_to_string i = Fmt.str "%a" pp_instr i
