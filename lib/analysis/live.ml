open Ir
open Bitvec

let index = function
  | Reg.Cc -> 0
  | Reg.Phys i -> 1 + i
  | Reg.Virt n -> 1 + Conv.num_regs + n

let phys = Array.init Conv.num_regs (fun i -> Reg.Phys i)

let reg_of_index k =
  if k = 0 then Reg.Cc
  else if k <= Conv.num_regs then phys.(k - 1)
  else Reg.Virt (k - 1 - Conv.num_regs)

module Regs = struct
  type t = { bits : int array; off : int; words : int }

  let mem s r =
    let k = index r in
    k < s.words * bits_per_word && get s.bits s.off k

  let fold f s acc =
    let acc = ref acc in
    for w = 0 to s.words - 1 do
      let word = ref s.bits.(s.off + w) in
      let k = ref (w * bits_per_word) in
      while !word <> 0 do
        if !word land 1 <> 0 then acc := f (reg_of_index !k) !acc;
        word := !word lsr 1;
        incr k
      done
    done;
    !acc

  let or_into s dst off = union_into dst off s.bits s.off s.words
end

type t = {
  words : int;  (** ints per set *)
  live_in : int array;  (** block [i]'s set at [i * words] *)
  live_out : int array;
  stats : Dataflow.stats;
}

let stats t = t.stats
let view bits t i = { Regs.bits; off = i * t.words; words = t.words }
let live_in t i = view t.live_in t i
let live_out t i = view t.live_out t i

let fold_backward t f instrs i ~init =
  let words = t.words in
  let buf = Array.sub t.live_out (i * words) words in
  let after = { Regs.bits = buf; off = 0; words } in
  let kill r = clear buf 0 (index r) in
  let gen r = set buf 0 (index r) in
  List.fold_right
    (fun instr acc ->
      let acc = f acc instr ~live_after:after in
      Rtl.iter_defs kill instr;
      Rtl.iter_uses gen instr;
      acc)
    instrs init

type swept = { kept : Rtl.instr list; live_in_changed : bool; lost : Reg.t list }

(* The registers [instrs] read before writing, [words] wide. *)
let upward_exposed words instrs =
  let buf = Array.make words 0 in
  List.fold_right
    (fun instr () ->
      Rtl.iter_defs (fun r -> clear buf 0 (index r)) instr;
      Rtl.iter_uses (fun r -> set buf 0 (index r)) instr)
    instrs ();
  buf

let sweep t drop instrs i =
  let words = t.words in
  let buf = Array.sub t.live_out (i * words) words in
  let after = { Regs.bits = buf; off = 0; words } in
  let kill r = clear buf 0 (index r) in
  let gen r = set buf 0 (index r) in
  let dropped = ref false in
  let kept =
    List.fold_right
      (fun instr acc ->
        if drop instr ~live_after:after then begin
          dropped := true;
          acc
        end
        else begin
          Rtl.iter_defs kill instr;
          Rtl.iter_uses gen instr;
          instr :: acc
        end)
      instrs []
  in
  if not !dropped then None
  else begin
    let off = i * words in
    let changed = ref false in
    for w = 0 to words - 1 do
      if buf.(w) <> t.live_in.(off + w) then changed := true
    done;
    let lost =
      if !changed then []
      else begin
        (* Dropping only removes uses, so the kept code's upward-exposed
           registers are a subset of the whole block's. *)
        let before = upward_exposed words instrs in
        let still = upward_exposed words kept in
        Array.iteri (fun w s -> before.(w) <- before.(w) land lnot s) still;
        Regs.fold List.cons { Regs.bits = before; off = 0; words } []
      end
    in
    Some { kept; live_in_changed = !changed; lost }
  end

(* Per-block gen (upward-exposed uses) and kill (every definition) sets,
   [words] wide.  A register past that width is left out; the result's
   third component is the highest such index, 0 when everything fit. *)
let gen_kill ~n ~words instrs =
  let gen = Array.make (n * words) 0 in
  let kill = Array.make (n * words) 0 in
  let limit = words * bits_per_word in
  let over = ref 0 in
  for b = 0 to n - 1 do
    let off = b * words in
    let use r =
      let k = index r in
      if k >= limit then over := max !over k
      else if not (get kill off k) then set gen off k
    in
    let def r =
      let k = index r in
      if k >= limit then over := max !over k else set kill off k
    in
    List.iter
      (fun i ->
        Rtl.iter_uses use i;
        Rtl.iter_defs def i)
      instrs.(b)
  done;
  (gen, kill, !over)

let solve ?max_visits ?(regs = 1) ~graph ~instrs () =
  let n = graph.Dataflow.nodes in
  let words, gen, kill =
    let words = words_for (max 0 (regs - 1)) in
    match gen_kill ~n ~words instrs with
    | gen, kill, 0 -> (words, gen, kill)
    | _, _, over ->
      (* The guess was short: one more pass at the measured width. *)
      let words = words_for over in
      let gen, kill, _ = gen_kill ~n ~words instrs in
      (words, gen, kill)
  in
  let r =
    Bitvec.solve ~name:"live" ?max_visits ~direction:Dataflow.Backward
      ~meet:Bitvec.Union ~graph ~words ~gen ~kill
      ~init:(Array.make words 0) ()
  in
  (* Backward orientation: the meet over successors is live-out, the
     transferred fact live-in. *)
  { words; live_in = r.output; live_out = r.input; stats = r.stats }
