open Ir
open Flow

(* The preheader edit: a fresh block placed positionally just before the
   loop header, holding [code], takes over every edge into the header from
   outside the loop.  Only the blocks that name the header are rewritten;
   the rest are shared.  Returns the new function, the preheader's label
   and the number of blocks inserted (2 when a stub was needed). *)
let preheader func blocks (loop : Loops.loop) code =
  let header = loop.header in
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
  let names_header (b : Func.block) =
    List.exists
      (function
        | Rtl.Branch (_, l) | Rtl.Jump l -> Label.equal l header_label
        | Rtl.Ijump (_, tbl) -> Array.exists (Label.equal header_label) tbl
        | _ -> false)
      b.instrs
  in
  let old bi =
    let b =
      match fixed with Some fb when bi = header - 1 -> fb | _ -> blocks.(bi)
    in
    if Loops.Int_set.mem bi loop.body || not (names_header b) then b
    else
      { b with
        instrs =
          List.map
            (Rtl.map_labels (fun l ->
                 if Label.equal l header_label then pre_label else l))
            b.instrs }
  in
  let pre = { Func.label = pre_label; instrs = code } in
  let inserted = match stub with Some sb -> [| sb; pre |] | None -> [| pre |] in
  let added = Array.length inserted in
  let out =
    Array.init
      (Array.length blocks + added)
      (fun j ->
        if j < header then old j
        else if j < header + added then inserted.(j - header)
        else old (j - added))
  in
  (Func.with_blocks func out, pre_label, added)

let insert_preheader func loop =
  let func, pre_label, _ = preheader func (Func.blocks func) loop [] in
  (func, pre_label)

(* Liveness across preheader edits; the reuse rule is in licm.mli.  The
   kept facts are looked up by label, since a preheader shifts every
   index above it. *)
module Live = struct
  type t = {
    mutable kept : (Func.t * Liveness.t) option;
        (* the function last solved, and its facts *)
    mutable dirty : Label.Set.t;
    mutable alias : Label.t Label.Map.t;
        (* preheader -> the label whose kept live-in is its own *)
  }

  let create () =
    { kept = None; dirty = Label.Set.empty; alias = Label.Map.empty }

  let solve ?cfg t func =
    t.kept <- Some (func, Liveness.compute ?cfg func);
    t.dirty <- Label.Set.empty;
    t.alias <- Label.Map.empty

  let note_hoist t ~before (loop : Loops.loop) ~after =
    if Option.is_some t.kept then begin
      let label f i = (Func.block f i).Func.label in
      let added = Func.num_blocks after - Func.num_blocks before in
      let header = label before loop.header in
      let pre = label after (loop.header + added - 1) in
      let dirty =
        Loops.Int_set.fold
          (fun bi s -> Label.Set.add (label before bi) s)
          loop.body t.dirty
      in
      let dirty =
        if added = 2 then Label.Set.add (label after loop.header) dirty
        else dirty
      in
      if Label.Set.mem header t.dirty then t.dirty <- Label.Set.add pre dirty
      else begin
        t.dirty <- dirty;
        let target =
          Option.value (Label.Map.find_opt header t.alias) ~default:header
        in
        t.alias <- Label.Map.add pre target t.alias
      end
    end

  let kept_in t func i =
    match t.kept with
    | None -> None
    | Some (solved, facts) ->
      let l = (Func.block func i).Func.label in
      if Label.Set.mem l t.dirty then None
      else
        let l = Option.value (Label.Map.find_opt l t.alias) ~default:l in
        Some (Liveness.live_in facts (Func.index_of_label solved l))

  let mem_in t g func i r =
    match kept_in t func i with
    | Some regs -> Liveness.Regs.mem regs r
    | None ->
      solve ~cfg:g t func;
      Liveness.Regs.mem (Option.get (kept_in t func i)) r
end

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

(* The invariant instructions of [loop] to hoist into its preheader:
   [Some (blocks, code)] with the function's blocks minus the hoisted
   sites, and the hoisted code in order; [None] when nothing moves. *)
let hoist_loop func g dom (live : Live.t) (loop : Loops.loop) =
  let defs = loop_defs func loop in
  let def_sites r =
    match Hashtbl.find_opt defs r with Some sites -> sites | None -> []
  in
  let def_count r = List.length (def_sites r) in
  let mem_dirty = loop_has_mem_effects func loop in
  let exits = Loops.exit_edges g loop in
  (* Liveness is only consulted by the exit-safety check, and most loops
     have no syntactically hoistable group at all — [live] solves nothing
     until a candidate actually needs it. *)
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
      when Reg.equal d d' ->
      let reads_d = ref false in
      Rtl.iter_uses (fun r -> if Reg.equal r d then reads_d := true) i;
      not !reads_d
    | _ -> false
  in
  let exit_safe_sites d sites =
    (not (Live.mem_in live g func loop.header d))
    && List.for_all
         (fun (u, vout) ->
           List.exists (fun (bd, _) -> Dom.dominates dom bd u) sites
           || not (Live.mem_in live g func vout d))
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
      (* Most blocks hold no candidate: leave their lists alone. *)
      let candidate i =
        match dest_of i with
        | Some d -> Option.is_some (group_of d)
        | None -> false
      in
      if List.exists candidate b.instrs then begin
        let keep = scan [] b.instrs in
        if List.length keep <> List.length b.instrs then
          blocks.(bi) <- { b with instrs = keep }
      end)
    loop.body;
  match !hoisted with
  | [] -> None
  | moved -> Some (blocks, List.rev moved)

let labels func blocks =
  Loops.Int_set.fold
    (fun bi s -> Label.Set.add (Func.block func bi).Func.label s)
    blocks Label.Set.empty

(* The labels a loop's hoisting decision depends on: its body blocks and
   its exit targets. *)
let footprint func g (loop : Loops.loop) =
  List.fold_left
    (fun s (_, v) -> Label.Set.add (Func.block func v).Func.label s)
    (labels func loop.body) (Loops.exit_edges g loop)

let max_rounds = 50

let run ?(on_hoist = fun ~before:_ _ ~after:_ _ -> ()) func =
  (* One loop per round, innermost first.  A hoist edits only its own
     loop's blocks (and the jumps into its header), so the analyses are
     updated for the preheader rather than rebuilt, and a loop that
     hoisted nothing is not retried until a hoist touches its footprint.
     Everything else its decision reads is unchanged: its own blocks,
     dominance among the other blocks, and liveness outside the hoisting
     loop — only the header has predecessors outside a natural loop, and
     the preheader's live-in is the old header's. *)
  let failed : (Label.t, Label.Set.t) Hashtbl.t = Hashtbl.create 8 in
  let live = Live.create () in
  let rec rounds func g dom loops left =
    let rec try_loops = function
      | [] -> None
      | (l : Loops.loop) :: rest -> (
        let key = (Func.block func l.header).Func.label in
        match Hashtbl.find_opt failed key with
        | Some fp when Label.Set.equal fp (footprint func g l) -> try_loops rest
        | Some _ | None -> (
          match hoist_loop func g dom live l with
          | Some edit -> Some (l, edit)
          | None ->
            Hashtbl.replace failed key (footprint func g l);
            try_loops rest))
    in
    match try_loops loops with
    | None -> (func, left < max_rounds)
    | Some (l, (blocks, code)) ->
      let body = labels func l.body in
      Hashtbl.filter_map_inplace
        (fun _ fp -> if Label.Set.disjoint fp body then Some fp else None)
        failed;
      let func', _, added = preheader func blocks l code in
      Live.note_hoist live ~before:func l ~after:func';
      on_hoist ~before:func l ~after:func' live;
      let func = func' in
      if left = 1 then (func, true)
      else
        let header = l.header in
        rounds func
          (Cfg.insert_preheader g func ~header ~added)
          (Dom.insert_preheader dom ~header ~added)
          (Loops.insert_preheader loops ~loop:l ~added)
          (left - 1)
  in
  let g = Cfg.make func in
  let dom = Dom.compute g in
  rounds func g dom
    (Loops.innermost_first (Loops.natural_loops g dom))
    max_rounds
