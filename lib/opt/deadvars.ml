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
                Rtl.is_pure instr && Liveness.dead_result ~cc:true live_after instr
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
