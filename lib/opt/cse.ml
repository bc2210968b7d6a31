open Flow

(* Local value numbering over extended basic blocks.  The fact domain
   (versioned expression tables) lives in [Analysis.Valnum]; this pass
   rewrites every block in one walk, in reverse postorder, each from the
   exit state of its parent in the EBB forest — the unique predecessor of
   a reachable block that has exactly one — and everywhere else (joins,
   the entry, unreachable blocks) from the empty state, exactly as a fresh
   EBB walk would.

   The forest is acyclic: a reachable single-predecessor cycle would need
   an edge into the entry block, which [Check] forbids.  Reverse postorder
   visits a block's unique predecessor first, so every parent's exit state
   is ready when its children are rewritten. *)

let run func =
  let g = Cfg.make func in
  let reach = Cfg.reachable g in
  let blocks = Func.blocks func in
  let exit_state = Array.make (Array.length blocks) Analysis.Valnum.empty in
  let changed = ref false in
  let out = Array.copy blocks in
  Array.iter
    (fun bi ->
      let entry =
        if not reach.(bi) then Analysis.Valnum.empty
        else
          match Cfg.preds g bi with
          | [ p ] when p <> bi -> exit_state.(p)
          | _ -> Analysis.Valnum.empty
      in
      let st, instrs =
        List.fold_left
          (fun (st, acc) i ->
            let st, i', c = Analysis.Valnum.rewrite st i in
            if c then changed := true;
            (st, i' :: acc))
          (entry, []) blocks.(bi).Func.instrs
      in
      exit_state.(bi) <- st;
      out.(bi) <- { (blocks.(bi)) with instrs = List.rev instrs })
    (Cfg.reverse_postorder g);
  if !changed then (Func.with_blocks func out, true) else (func, false)
