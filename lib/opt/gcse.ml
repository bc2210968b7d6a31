open Ir
open Flow
module Av = Analysis.Avail

(* Global CSE over pure register expressions: availability facts come from
   [Analysis.Avail] (bit sets over the function's ranked keys); this pass
   keeps the two rewrite phases — find expressions recomputed while
   available, then save each into a fresh temporary at its generating
   sites and take the saved value at the recomputations. *)

let dest i =
  match Av.key_of i with Some (d, _) -> d | None -> assert false

let run func =
  let g = Cfg.make func in
  let blocks = Func.blocks func in
  let instrs = Array.map (fun (b : Func.block) -> b.Func.instrs) blocks in
  let av = Av.solve ~graph:(Cfg.graph g) ~instrs () in
  let nkeys = Array.length (Av.keys av) in
  if nkeys = 0 then (func, false)
  else begin
    (* Which expressions are actually worth rewriting: available at a site
       that recomputes them. *)
    let redundant = Array.make nkeys false in
    let any = ref false in
    for bi = 0 to Array.length blocks - 1 do
      Av.fold av
        (fun () _ ~key ~avail ~generates:_ ->
          if avail then begin
            redundant.(key) <- true;
            any := true
          end)
        bi ~init:()
    done;
    if not !any then (func, false)
    else begin
      (* Fresh temporaries in rank order, which is [compare] order. *)
      let temp = Array.make nkeys None in
      Array.iteri
        (fun k r -> if r then temp.(k) <- Some (Func.fresh_reg func))
        redundant;
      let did_change = ref false in
      let blocks =
        Array.mapi
          (fun bi (b : Func.block) ->
            let rev =
              Av.fold av
                (fun acc i ~key ~avail ~generates ->
                  match if key >= 0 then temp.(key) else None with
                  | Some t when avail ->
                    (* Recomputation: take the saved value. *)
                    did_change := true;
                    Rtl.Move (Lreg (dest i), Reg t) :: acc
                  | Some t when generates ->
                    (* Generating site: save the value for later. *)
                    Rtl.Move (Lreg t, Reg (dest i)) :: i :: acc
                  | Some _ | None -> i :: acc)
                bi ~init:[]
            in
            { b with instrs = List.rev rev })
          blocks
      in
      if !did_change then (Func.with_blocks func blocks, true)
      else (func, false)
    end
  end
