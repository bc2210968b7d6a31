(* The dead-variable elimination that [Opt.Deadvars] replaced: one
   liveness solve, and a backward fold whose live-after view adds the
   uses of every instruction it deletes, so one run removes one layer of
   a dead chain.  Kept as the oracle for [Opt.Deadvars.run]: iterated
   until it reports no change, it must give the same function. *)

open Ir
open Flow

let run func =
  let live = Liveness.compute func in
  let changed = ref false in
  let blocks =
    Array.mapi
      (fun i (b : Func.block) ->
        let instrs =
          Liveness.fold_backward live
            (fun acc instr ~live_after ->
              let self_move =
                match instr with
                | Rtl.Move (Lreg d, Reg s) -> Reg.equal d s
                | _ -> false
              in
              let dead =
                Rtl.is_pure instr && Liveness.dead_result live_after instr
              in
              if self_move || dead then begin
                changed := true;
                acc
              end
              else instr :: acc)
            i ~init:[]
        in
        { b with instrs })
      (Func.blocks func)
  in
  if !changed then (Func.with_blocks func blocks, true) else (func, false)

(* [run] until it reports no change; also the number of changing runs. *)
let fixpoint func =
  let rec go func n =
    match run func with
    | func', true -> go func' (n + 1)
    | _, false -> (func, n)
  in
  go func 0
