(* The loop-invariant code motion that [Opt.Licm] replaced: every round
   rebuilds the CFG, the dominators and the loop forest, retries every
   loop innermost first, and a hoist maps the labels of every block
   outside the loop.  Kept as the oracle for [Opt.Licm.run], which must
   make the same decisions (same output, same change flag), together
   with the per-back-edge natural-loop search [Loops.natural_loops]
   replaced. *)

open Ir
open Flow

(* The natural loop of back edge u -> v: v plus all blocks that reach u
   without passing through v.  Loops sharing a header are merged. *)
let loop_of_back_edge g (u, v) =
  let body = ref (Loops.Int_set.add v Loops.Int_set.empty) in
  let rec visit x =
    if not (Loops.Int_set.mem x !body) then begin
      body := Loops.Int_set.add x !body;
      List.iter visit (Cfg.preds g x)
    end
  in
  visit u;
  { Loops.header = v; body = !body }

let natural_loops g dom =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (u, v) ->
      let l = loop_of_back_edge g (u, v) in
      match Hashtbl.find_opt tbl v with
      | None -> Hashtbl.add tbl v l
      | Some (l' : Loops.loop) ->
        Hashtbl.replace tbl v
          { l' with body = Loops.Int_set.union l'.body l.body })
    (Loops.back_edges g dom);
  Hashtbl.fold (fun _ l acc -> l :: acc) tbl []
  |> List.sort (fun (a : Loops.loop) b -> Int.compare a.header b.header)

(* Insert a preheader before the loop header: every edge into the header
   from outside the loop is redirected to a fresh block placed positionally
   just before the header.  Back-edge fall-through into the header (rare,
   after reordering) is firmed up with an explicit jump first. *)
let insert_preheader func (loop : Loops.loop) =
  let header = loop.header in
  let blocks = Func.blocks func in
  let header_label = blocks.(header).Func.label in
  let pre_label = Func.fresh_label func in
  (* Firm up the fall-through of the positional predecessor if it would now
     fall into the preheader incorrectly:
     - if it is in the loop (back-edge fall-through), it must reach the
       header over the preheader: append a jump when the block has no
       terminator, or interpose a jump-only stub when it ends in a
       conditional branch (a block may hold only one transfer);
     - if it is outside, falling into the preheader is exactly right. *)
  let fixed, stub =
    if
      header > 0
      && Func.falls_through blocks.(header - 1)
      && Loops.Int_set.mem (header - 1) loop.body
    then begin
      let pred = blocks.(header - 1) in
      match Func.terminator pred with
      | None ->
        (Some { pred with instrs = pred.instrs @ [ Rtl.Jump header_label ] },
         None)
      | Some _ ->
        (None,
         Some { Func.label = Func.fresh_label func;
                instrs = [ Rtl.Jump header_label ] })
    end
    else (None, None)
  in
  let retarget_block bi (b : Func.block) =
    if Loops.Int_set.mem bi loop.body then b
    else begin
      let instrs =
        List.map
          (Rtl.map_labels (fun l ->
               if Label.equal l header_label then pre_label else l))
          b.instrs
      in
      { b with instrs }
    end
  in
  let out =
    Array.to_list blocks
    |> List.mapi (fun bi b ->
           let b = match fixed with
             | Some fb when bi = header - 1 -> fb
             | _ -> b
           in
           retarget_block bi b)
  in
  let pre = { Func.label = pre_label; instrs = [] } in
  let before, after =
    let rec split i acc = function
      | [] -> (List.rev acc, [])
      | x :: rest when i = header -> (List.rev acc, x :: rest)
      | x :: rest -> split (i + 1) (x :: acc) rest
    in
    split 0 [] out
  in
  let inserted = match stub with Some sb -> [ sb; pre ] | None -> [ pre ] in
  let blocks = Array.of_list (before @ inserted @ after) in
  (Func.with_blocks func blocks, pre_label)

(* Definitions of each register inside the loop: count, and the list of
   (block, instr) sites. *)
let loop_defs func (loop : Loops.loop) =
  (* Only ever queried point-wise, so a mutable table beats rebuilding a
     balanced tree once per definition. *)
  let defs = Hashtbl.create 64 in
  Loops.Int_set.iter
    (fun bi ->
      List.iter
        (fun i ->
          Rtl.iter_defs
            (fun r ->
              let sites =
                match Hashtbl.find_opt defs r with
                | Some sites -> sites
                | None -> []
              in
              Hashtbl.replace defs r ((bi, i) :: sites))
            i)
        (Func.block func bi).instrs)
    loop.body;
  defs

let loop_has_mem_effects func (loop : Loops.loop) =
  Loops.Int_set.exists
    (fun bi ->
      List.exists
        (fun i ->
          Rtl.writes_mem i || match i with Rtl.Call _ -> true | _ -> false)
        (Func.block func bi).instrs)
    loop.body

(* Hoist invariant instructions of [loop] into its preheader; returns the
   new function and whether anything moved. *)
let hoist_loop func g dom live (loop : Loops.loop) =
  let defs = loop_defs func loop in
  let def_sites r =
    match Hashtbl.find_opt defs r with Some sites -> sites | None -> []
  in
  let def_count r = List.length (def_sites r) in
  let mem_dirty = loop_has_mem_effects func loop in
  let exits = Loops.exit_edges g loop in
  (* Liveness is only consulted by the exit-safety check, and most loops
     have no syntactically hoistable group at all — keep the whole
     dataflow computation unforced until a candidate actually needs it. *)
  (* The preheader runs even when the loop body would not (zero-iteration
     entry), so hoisted instructions must be unable to fault: no division by
     a possibly-zero value, and loads only through always-mapped addresses
     (frame or globals). *)
  let cannot_fault (i : Rtl.instr) =
    let safe_div =
      match i with
      | Rtl.Binop ((Div | Rem), _, _, Imm n) -> n <> 0
      | Rtl.Binop ((Div | Rem), _, _, (Reg _ | Mem _)) -> false
      | _ -> true
    in
    let safe_addr = function
      | Rtl.Based (r, _) -> Reg.equal r Ir.Conv.fp
      | Rtl.Indexed _ -> false
      | Rtl.Abs _ -> true
    in
    let safe_load =
      match i with
      | Rtl.Move (_, Mem (_, a))
      | Rtl.Binop (_, _, Mem (_, a), _)
      | Rtl.Binop (_, _, _, Mem (_, a))
      | Rtl.Unop (_, _, Mem (_, a)) ->
        safe_addr a
      | _ -> true
    in
    safe_div && safe_load
  in
  let basic_ok (i : Rtl.instr) =
    Rtl.is_pure i
    && ((not (Rtl.reads_mem i)) || not mem_dirty)
    && cannot_fault i
    &&
    let invariant = ref true in
    Rtl.iter_uses (fun r -> if def_count r > 0 then invariant := false) i;
    !invariant
  in
  (* One rule covers replication-duplicated definitions and the plain
     single-definition case alike.  A register [d] is hoistable when every
     definition of [d] in the loop is the same invariant computation — a
     single instruction, or the adjacent two-address pair
     [d := a; d := d op b] — because then [d] holds that one value at
     every point after any definition.  All sites are deleted and one copy
     moves to the preheader.  Safety:
     - [d] is not live into the header, so nothing observes the pre-loop
       value that the preheader now overwrites;
     - at each exit where [d] is live, some deleted site dominated the
       exit, so the original code also had [d] set to this value there. *)
  let single_shape d = function
    | ( Rtl.Binop (_, Lreg d', _, _)
      | Rtl.Unop (_, Lreg d', _)
      | Rtl.Lea (d', _)
      | Rtl.Move (Lreg d', _) ) as i
      when Reg.equal d d' && not (Reg.Set.mem d (Rtl.uses i)) ->
      true
    | _ -> false
  in
  let exit_safe_sites d sites =
    (not (Liveness.mem_in (Lazy.force live) loop.header d))
    && List.for_all
         (fun (u, vout) ->
           List.exists (fun (bd, _) -> Dom.dominates dom bd u) sites
           || not (Liveness.mem_in (Lazy.force live) vout d))
         exits
  in
  (* The hoistable definition group of [d], if any: [`Single i] when every
     site is the invariant instruction [i]; [`Pair (i1, i2)] when the sites
     are equal counts of the two halves of an invariant two-address pair
     (adjacency of each occurrence is enforced at deletion time; partial
     deletion is still sound since the surviving sites recompute the same
     value). *)
  let group_of d =
    match def_sites d with
    | [] -> None
    | (_, first) :: _ as sites ->
      if
        single_shape d first
        && List.for_all (fun (_, j) -> Rtl.equal_instr j first) sites
        && basic_ok first
        && exit_safe_sites d sites
      then Some (`Single first)
      else begin
        (* Pair: identify the Move half among the sites. *)
        let halves =
          List.filter_map
            (fun (_, j) ->
              match j with
              | Rtl.Move (Lreg d', _) when Reg.equal d d' -> Some (`M j)
              | Rtl.Binop (_, Lreg d', Reg s, _)
                when Reg.equal d d' && Reg.equal d s ->
                Some (`B j)
              | _ -> None)
            sites
        in
        if List.length halves <> List.length sites then None
        else begin
          let moves = List.filter_map (function `M j -> Some j | `B _ -> None) halves in
          let binops = List.filter_map (function `B j -> Some j | `M _ -> None) halves in
          match moves, binops with
          | m :: _, b :: _
            when List.length moves = List.length binops
                 && List.for_all (fun j -> Rtl.equal_instr j m) moves
                 && List.for_all (fun j -> Rtl.equal_instr j b) binops ->
            let operand_inv o =
              Reg.Set.for_all (fun r -> def_count r = 0) (Rtl.operand_regs o)
            in
            let pair_ok =
              (match m, b with
              | Rtl.Move (_, src), Rtl.Binop (_, _, _, y) ->
                operand_inv src && operand_inv y
              | _ -> false)
              && Rtl.is_pure m && Rtl.is_pure b
              && ((not (Rtl.reads_mem m || Rtl.reads_mem b)) || not mem_dirty)
              && cannot_fault m && cannot_fault b
              && exit_safe_sites d sites
            in
            if pair_ok then Some (`Pair (m, b)) else None
          | _ -> None
        end
      end
  in
  let group_cache = Hashtbl.create 16 in
  let group_of d =
    match Hashtbl.find_opt group_cache d with
    | Some g -> g
    | None ->
      let g = group_of d in
      Hashtbl.add group_cache d g;
      g
  in
  let dest_of = function
    | Rtl.Binop (_, Rtl.Lreg d, _, _)
    | Rtl.Unop (_, Rtl.Lreg d, _)
    | Rtl.Lea (d, _)
    | Rtl.Move (Rtl.Lreg d, _) ->
      Some d
    | _ -> None
  in
  (* Collect candidates (they may enable one another; caller iterates). *)
  let hoisted = ref [] in
  let already_hoisted i =
    List.exists (fun j -> Rtl.equal_instr j i) !hoisted
  in
  let blocks = Array.copy (Func.blocks func) in
  Loops.Int_set.iter
    (fun bi ->
      let b = blocks.(bi) in
      let rec scan acc = function
        | i1 :: i2 :: rest
          when (match dest_of i1 with
               | Some d -> (
                 match group_of d with
                 | Some (`Pair (m, b)) ->
                   Rtl.equal_instr i1 m && Rtl.equal_instr i2 b
                 | Some (`Single _) | None -> false)
               | None -> false) ->
          if not (already_hoisted i2) then hoisted := i2 :: i1 :: !hoisted;
          scan acc rest
        | i :: rest
          when (match dest_of i with
               | Some d -> (
                 match group_of d with
                 | Some (`Single j) -> Rtl.equal_instr i j
                 | Some (`Pair _) | None -> false)
               | None -> false) ->
          if not (already_hoisted i) then hoisted := i :: !hoisted;
          scan acc rest
        | i :: rest -> scan (i :: acc) rest
        | [] -> List.rev acc
      in
      let keep = scan [] b.instrs in
      if List.length keep <> List.length b.instrs then
        blocks.(bi) <- { b with instrs = keep })
    loop.body;
  match !hoisted with
  | [] -> (func, false)
  | moved ->
    (* A fresh preheader keeps things simple: insert, then append the
       hoisted code there.  We must translate block indices: insertion
       shifts blocks at or after the header by one. *)
    let func = Func.with_blocks func blocks in
    let func, pre_label = insert_preheader func loop in
    let pre_idx = Func.index_of_label func pre_label in
    let pb = Func.block func pre_idx in
    let out = Array.copy (Func.blocks func) in
    out.(pre_idx) <- { pb with instrs = pb.instrs @ List.rev moved } ;
    (Func.with_blocks func out, true)

let run func =
  (* One loop per round; indices go stale as soon as a preheader is
     inserted, so recompute the loop forest each time. *)
  let rec rounds func changed n =
    if n = 0 then (func, changed)
    else begin
      let g = Cfg.make func in
      let dom = Dom.compute g in
      let live = lazy (Liveness.compute ~cfg:g func) in
      let loops = Loops.innermost_first (natural_loops g dom) in
      let rec try_loops = function
        | [] -> None
        | l :: rest -> (
          match hoist_loop func g dom live l with
          | f, true -> Some f
          | _, false -> try_loops rest)
      in
      match try_loops loops with
      | Some func -> rounds func true (n - 1)
      | None -> (func, changed)
    end
  in
  rounds func false 50
