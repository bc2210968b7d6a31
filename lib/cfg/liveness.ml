type t = { func : Func.t; facts : Analysis.Live.t }

module Regs = Analysis.Live.Regs

(* Liveness of the same (physically identical) function is requested by
   several passes per pipeline iteration — dead-variable elimination,
   instruction selection, register allocation, LICM.  Memoize the solve
   in one table per process (parallel work runs in worker processes). *)
let cache : (Func.t, Analysis.Live.t) Analysis.Cache.t =
  Analysis.Cache.create ~size:8 ()

let solve ?cfg func =
  let cfg = match cfg with Some g -> g | None -> Cfg.make func in
  let instrs =
    Array.map (fun (b : Func.block) -> b.instrs) (Func.blocks func)
  in
  (* Virtuals come from the function's supply, so its next index is the
     width to try first; [solve] rescans wider should one lie beyond. *)
  let regs =
    1 + Ir.Conv.num_regs + Ir.Reg.Supply.next_index (Func.vsupply func)
  in
  Analysis.Live.solve ~regs ~graph:(Cfg.graph cfg) ~instrs ()

let compute ?cfg func =
  { func; facts = Analysis.Cache.find cache func (solve ?cfg) }

let adopt t func =
  Analysis.Cache.add cache func t.facts;
  { func; facts = t.facts }

let stats t = Analysis.Live.stats t.facts
let live_in t i = Analysis.Live.live_in t.facts i
let live_out t i = Analysis.Live.live_out t.facts i
let mem_in t i r = Regs.mem (live_in t i) r
let mem_out t i r = Regs.mem (live_out t i) r

let fold_backward t f i ~init =
  Analysis.Live.fold_backward t.facts f (Func.block t.func i).instrs i ~init

let sweep t drop i =
  Analysis.Live.sweep t.facts drop (Func.block t.func i).instrs i

let dead_result live_after instr =
  let written = ref false and live = ref false in
  Ir.Rtl.iter_defs
    (fun d ->
      written := true;
      if Regs.mem live_after d then live := true)
    instr;
  !written && not !live
