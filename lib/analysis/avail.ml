open Ir

type key =
  | Kbinop of Rtl.binop * Rtl.operand * Rtl.operand
  | Kunop of Rtl.unop * Rtl.operand
  | Klea of Rtl.addr

let pure_operand = function
  | Rtl.Reg _ | Rtl.Imm _ -> true
  | Rtl.Mem _ -> false

let pure_addr = function Rtl.Based _ | Rtl.Indexed _ | Rtl.Abs _ -> true

let key_of (i : Rtl.instr) =
  match i with
  | Binop (op, Lreg d, a, b) when pure_operand a && pure_operand b ->
    let a, b =
      if Rtl.commutative op && compare b a < 0 then (b, a) else (a, b)
    in
    Some (d, Kbinop (op, a, b))
  | Unop (op, Lreg d, a) when pure_operand a -> Some (d, Kunop (op, a))
  | Lea (d, a) when pure_addr a -> Some (d, Klea a)
  | Binop _ | Unop _ | Lea _ | Move _ | Cmp _ | Branch _ | Jump _ | Ijump _
  | Call _ | Ret | Enter _ | Leave | Nop ->
    None

let iter_addr_regs f = function
  | Rtl.Based (r, _) -> f r
  | Rtl.Indexed (b, i, _, _) ->
    f b;
    f i
  | Rtl.Abs _ -> ()

let iter_operand_regs f = function
  | Rtl.Reg r -> f r
  | Rtl.Imm _ -> ()
  | Rtl.Mem (_, a) -> iter_addr_regs f a

let iter_key_regs f = function
  | Kbinop (_, a, b) ->
    iter_operand_regs f a;
    iter_operand_regs f b
  | Kunop (_, a) -> iter_operand_regs f a
  | Klea a -> iter_addr_regs f a

let reads k d =
  let hit = ref false in
  iter_key_regs (fun r -> if Reg.equal r d then hit := true) k;
  !hit

(* Keys are ranked once per solve, in [compare] order: key [k] is bit [k]
   of every set.  A register's kill mask holds the keys reading it, so an
   instruction kills the union of its definitions' masks.  Each
   instruction's key and generated key are looked up once, into [sites]:
   two ints per instruction, [-1] for none. *)
type t = {
  keys : key array;
  words : int;
  avail_in : int array;  (** block [i]'s set at [i * words] *)
  masks : int array array;  (** by [Live.index]; [[||]] when no key reads it *)
  instrs : Rtl.instr list array;
  sites : int array array;
  stats : Dataflow.stats;
}

let keys t = t.keys
let stats t = t.stats

let mask t r =
  let x = Live.index r in
  if x < Array.length t.masks then t.masks.(x) else [||]

(* [bits.(off ..) <- bits.(off ..) land lnot m]. *)
let remove_mask bits off m =
  for w = 0 to Array.length m - 1 do
    bits.(off + w) <- bits.(off + w) land lnot m.(w)
  done

let to_keys t bits off =
  let acc = ref [] in
  for k = Array.length t.keys - 1 downto 0 do
    if Bitvec.get bits off k then acc := t.keys.(k) :: !acc
  done;
  !acc

let avail_in t i = to_keys t t.avail_in (i * t.words)

let killed t i =
  let dead = Array.make t.words 0 in
  Rtl.iter_defs
    (fun r ->
      let m = mask t r in
      Bitvec.union_into dead 0 m 0 (Array.length m))
    i;
  to_keys t dead 0

let fold t f i ~init =
  let words = t.words and sites = t.sites.(i) in
  let avail = Array.sub t.avail_in (i * words) words in
  let kill r = remove_mask avail 0 (mask t r) in
  let j = ref 0 in
  List.fold_left
    (fun acc instr ->
      let key = sites.(2 * !j) and gen = sites.((2 * !j) + 1) in
      incr j;
      let acc =
        f acc instr ~key ~avail:(key >= 0 && Bitvec.get avail 0 key)
          ~generates:(gen >= 0)
      in
      Rtl.iter_defs kill instr;
      if gen >= 0 then Bitvec.set avail 0 gen;
      acc)
    init t.instrs.(i)

let solve ?max_visits ~graph ~instrs () =
  let n = Array.length instrs in
  (* The universe, ranked. *)
  let rank = Hashtbl.create 64 in
  let found =
    Array.map
      (fun is ->
        List.map
          (fun i ->
            let dk = key_of i in
            (match dk with
            | Some (_, k) when not (Hashtbl.mem rank k) -> Hashtbl.add rank k 0
            | Some _ | None -> ());
            dk)
          is)
      instrs
  in
  let keys = Array.of_seq (Hashtbl.to_seq_keys rank) in
  Array.sort compare keys;
  Array.iteri (fun r k -> Hashtbl.replace rank k r) keys;
  let nkeys = Array.length keys in
  let words = Bitvec.words_for (max 0 (nkeys - 1)) in
  let sites =
    Array.map
      (fun dks ->
        let a = Array.make (2 * List.length dks) (-1) in
        List.iteri
          (fun j dk ->
            match dk with
            | Some (d, k) ->
              let r = Hashtbl.find rank k in
              a.(2 * j) <- r;
              if not (reads k d) then a.((2 * j) + 1) <- r
            | None -> ())
          dks;
        a)
      found
  in
  let masks =
    let top = ref (-1) in
    Array.iter (iter_key_regs (fun r -> top := max !top (Live.index r))) keys;
    let masks = Array.make (!top + 1) [||] in
    Array.iteri
      (fun k key ->
        iter_key_regs
          (fun r ->
            let x = Live.index r in
            if Array.length masks.(x) = 0 then masks.(x) <- Array.make words 0;
            Bitvec.set masks.(x) 0 k)
          key)
      keys;
    masks
  in
  let t =
    {
      keys;
      words;
      avail_in = Array.make (n * words) 0;
      masks;
      instrs;
      sites;
      stats = { Dataflow.visits = 0 };
    }
  in
  if nkeys = 0 then t
  else begin
    let gen = Array.make (n * words) 0 in
    let kill = Array.make (n * words) 0 in
    Array.iteri
      (fun b is ->
        let off = b * words and sites = sites.(b) in
        List.iteri
          (fun j i ->
            Rtl.iter_defs
              (fun r ->
                let m = mask t r in
                remove_mask gen off m;
                Bitvec.union_into kill off m 0 (Array.length m))
              i;
            let g = sites.((2 * j) + 1) in
            if g >= 0 then begin
              Bitvec.set gen off g;
              Bitvec.clear kill off g
            end)
          is)
      instrs;
    let universe = Array.make words 0 in
    for k = 0 to nkeys - 1 do
      Bitvec.set universe 0 k
    done;
    let r =
      Bitvec.solve ~name:"avail" ?max_visits ~direction:Dataflow.Forward
        ~meet:Bitvec.Inter ~graph ~words ~gen ~kill ~init:universe ()
    in
    { t with avail_in = r.input; stats = r.stats }
  end
