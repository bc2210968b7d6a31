open Ir
open Flow

(* Follow a chain of empty blocks and jump-only blocks to its final label. *)
let resolve func l =
  let rec go seen l =
    if Label.Set.mem l seen then l
    else begin
      let seen = Label.Set.add l seen in
      match Func.index_of_label func l with
      | exception Not_found -> l
      | i -> (
        let b = Func.block func i in
        match b.instrs with
        | [] ->
          if i + 1 < Func.num_blocks func then
            go seen (Func.block func (i + 1)).label
          else l
        | [ Rtl.Jump l' ] -> go seen l'
        | _ :: _ -> l)
    end
  in
  go Label.Set.empty l

let run input =
  let changed = ref false in
  let retarget l =
    let l' = resolve input l in
    if not (Label.equal l l') then changed := true;
    l'
  in
  (* Pass 1: retarget through chains. *)
  let func =
    Func.map_instrs
      (fun instrs -> List.map (Rtl.map_labels retarget) instrs)
      input
  in
  (* Pass 2: structural cleanups that depend on positions. *)
  let n = Func.num_blocks func in
  let next_label i =
    if i + 1 < n then Some (Func.block func (i + 1)).Func.label else None
  in
  (* The first label of the (possibly empty) chain starting at block i. *)
  let rec first_real i =
    if i >= n then None
    else begin
      let b = Func.block func i in
      if b.instrs = [] then first_real (i + 1) else Some b.label
    end
  in
  (* Jump blocks absorbed by the branch-over-jump rewrite must be emptied
     so the reversed branch's fall-through reaches the old branch target. *)
  let absorb = Array.make n false in
  let blocks =
    Array.mapi
      (fun i (b : Func.block) ->
        match List.rev b.instrs with
        | Rtl.Jump l :: rest
          when (match first_real (i + 1) with
               | Some l' -> Label.equal l l'
               | None -> false) ->
          changed := true;
          { b with instrs = List.rev rest }
        | Rtl.Branch (_, l) :: rest
          when (match next_label i with
               | Some l' -> Label.equal l (resolve func l')
               | None -> false) ->
          (* Both edges reach the same place. *)
          changed := true;
          { b with instrs = List.rev rest }
        | Rtl.Branch (c, l) :: rest
          when i + 1 < n
               && (match (Func.block func (i + 1)).instrs with
                  | [ Rtl.Jump _ ] -> (
                    match first_real (i + 2) with
                    | Some l' -> Label.equal l l'
                    | None -> false)
                  | _ -> false) ->
          (* Branch over a jump: reverse the branch, absorb the jump's
             target; the jump block becomes unreachable. *)
          let l2 =
            match (Func.block func (i + 1)).instrs with
            | [ Rtl.Jump l2 ] -> l2
            | _ -> assert false
          in
          changed := true;
          absorb.(i + 1) <- true;
          { b with instrs = List.rev (Rtl.Branch (Rtl.negate_cond c, l2) :: rest) }
        | _ -> b)
      (Func.blocks func)
  in
  let blocks =
    Array.mapi
      (fun i (b : Func.block) -> if absorb.(i) then { b with instrs = [] } else b)
      blocks
  in
  if !changed then (Func.with_blocks func blocks, true) else (input, false)
