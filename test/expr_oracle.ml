(* The expression passes that [Opt.Cse], [Opt.Gcse] and [Opt.Isel]
   replaced, kept as their oracles: each new pass must make the same
   rewrites and report the same change flag on the same input.

   - [Avail] is the [Key_set] instance of the generic [Dataflow.Solver],
     with the full-scan [killed_by] as its only kill query; [Gcse] is the
     rewrite on top of it ([Key_map] of temporaries, the universe's
     [Key_set.fold] order for numbering them).
   - [Cse] solves block-entry states over the EBB forest with
     [Dataflow.Solver], then rewrites each block from its entry state.
     The lattice the pass used is gone from [Analysis.Valnum]; here
     [equal] is physical equality and [join] keeps agreeing states.  On
     the forest that is enough: it is acyclic and every node has at most
     one in-edge, so [join] is never called and the fixpoint is the one
     topological pass.
   - [Isel] is the pass verbatim, with [kill] and [kill_loads] scanning
     the whole fact table. *)

open Ir
open Flow

module Avail = struct
  type key = Analysis.Avail.key =
    | Kbinop of Rtl.binop * Rtl.operand * Rtl.operand
    | Kunop of Rtl.unop * Rtl.operand
    | Klea of Rtl.addr

  module Key_set = Set.Make (struct
    type t = key

    let compare = compare
  end)

  module Key_map = Map.Make (struct
    type t = key

    let compare = compare
  end)

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

  let key_regs = function
    | Kbinop (_, a, b) -> Reg.Set.union (Rtl.operand_regs a) (Rtl.operand_regs b)
    | Kunop (_, a) -> Rtl.operand_regs a
    | Klea a -> Rtl.addr_regs a

  let generates i =
    match key_of i with
    | Some (d, k) when not (Reg.Set.mem d (key_regs k)) -> Some (d, k)
    | Some _ | None -> None

  let killed_by universe (i : Rtl.instr) =
    let defs = Rtl.defs i in
    if Reg.Set.is_empty defs then Key_set.empty
    else
      Key_set.filter
        (fun k -> not (Reg.Set.is_empty (Reg.Set.inter (key_regs k) defs)))
        universe

  type t = {
    universe : Key_set.t;
    avail_in : Key_set.t array;
    stats : Analysis.Dataflow.stats;
  }

  module S = Analysis.Dataflow.Solver (struct
    type t = Key_set.t

    let equal = Key_set.equal
    let join = Key_set.inter
  end)

  let solve ?max_visits ~graph ~instrs () =
    let n = Array.length instrs in
    let universe =
      Array.fold_left
        (fun acc is ->
          List.fold_left
            (fun acc i ->
              match key_of i with
              | Some (_, k) -> Key_set.add k acc
              | None -> acc)
            acc is)
        Key_set.empty instrs
    in
    if Key_set.is_empty universe then
      {
        universe;
        avail_in = Array.make n Key_set.empty;
        stats = { Analysis.Dataflow.visits = 0 };
      }
    else begin
      let gen = Array.make n Key_set.empty in
      let kill = Array.make n Key_set.empty in
      Array.iteri
        (fun bi is ->
          List.iter
            (fun i ->
              let dead = killed_by universe i in
              gen.(bi) <- Key_set.diff gen.(bi) dead;
              kill.(bi) <- Key_set.union kill.(bi) dead;
              match generates i with
              | Some (_, k) ->
                gen.(bi) <- Key_set.add k gen.(bi);
                kill.(bi) <- Key_set.remove k kill.(bi)
              | None -> ())
            is)
        instrs;
      let r =
        S.solve ~name:"avail" ?max_visits ~direction:Analysis.Dataflow.Forward ~graph
          ~empty:Key_set.empty
          ~init:(fun _ -> universe)
          ~transfer:(fun b inb ->
            Key_set.union gen.(b) (Key_set.diff inb kill.(b)))
          ()
      in
      { universe; avail_in = r.S.input; stats = r.S.stats }
    end
end

module Gcse = struct
  let run func =
    let g = Cfg.make func in
    let instrs =
      Array.map (fun (b : Func.block) -> b.Func.instrs) (Func.blocks func)
    in
    let av = Avail.solve ~graph:(Cfg.graph g) ~instrs () in
    if Avail.Key_set.is_empty av.Avail.universe then (func, false)
    else begin
      (* Which expressions are actually worth rewriting: available at a site
         that recomputes them. *)
      let redundant = ref Avail.Key_set.empty in
      Array.iteri
        (fun bi (b : Func.block) ->
          let avail = ref av.Avail.avail_in.(bi) in
          List.iter
            (fun i ->
              (match Avail.key_of i with
              | Some (_, k) when Avail.Key_set.mem k !avail ->
                redundant := Avail.Key_set.add k !redundant
              | _ -> ());
              avail := Avail.Key_set.diff !avail (Avail.killed_by av.Avail.universe i);
              match Avail.generates i with
              | Some (_, k) -> avail := Avail.Key_set.add k !avail
              | None -> ())
            b.instrs)
        (Func.blocks func);
      if Avail.Key_set.is_empty !redundant then (func, false)
      else begin
        let temp_of =
          Avail.Key_set.fold
            (fun k acc -> Avail.Key_map.add k (Func.fresh_reg func) acc)
            !redundant Avail.Key_map.empty
        in
        let did_change = ref false in
        let blocks =
          Array.mapi
            (fun bi (b : Func.block) ->
              let avail = ref av.Avail.avail_in.(bi) in
              let instrs =
                List.concat_map
                  (fun i ->
                    let out =
                      match Avail.key_of i with
                      | Some (d, k)
                        when Avail.Key_map.mem k temp_of && Avail.Key_set.mem k !avail
                        ->
                        (* Recomputation: take the saved value. *)
                        did_change := true;
                        [ Rtl.Move (Lreg d, Reg (Avail.Key_map.find k temp_of)) ]
                      | _ -> (
                        match Avail.generates i with
                        | Some (d, k) when Avail.Key_map.mem k temp_of ->
                          (* Generating site: save the value for later. *)
                          [ i; Rtl.Move (Lreg (Avail.Key_map.find k temp_of), Reg d) ]
                        | Some _ | None -> [ i ])
                    in
                    avail := Avail.Key_set.diff !avail (Avail.killed_by av.Avail.universe i);
                    (match Avail.generates i with
                    | Some (_, k) -> avail := Avail.Key_set.add k !avail
                    | None -> ());
                    out)
                  b.instrs
              in
              { b with instrs })
            (Func.blocks func)
        in
        if !did_change then (Func.with_blocks func blocks, true)
        else (func, false)
      end
    end
end

module Cse = struct
  module S = Analysis.Dataflow.Solver (struct
    type t = Analysis.Valnum.state

    let equal = ( == )
    let join a b = if a == b then a else Analysis.Valnum.empty
  end)

  let step st i =
    let st, _, _ = Analysis.Valnum.rewrite st i in
    st

  let run func =
    let g = Cfg.make func in
    let n = Func.num_blocks func in
    let reach = Cfg.reachable g in
    let parent =
      Array.init n (fun i ->
          if not reach.(i) then None
          else match Cfg.preds g i with [ p ] when p <> i -> Some p | _ -> None)
    in
    let children = Array.make n [] in
    Array.iteri
      (fun i p ->
        match p with Some p -> children.(p) <- i :: children.(p) | None -> ())
      parent;
    let forest =
      {
        Analysis.Dataflow.nodes = n;
        succs = (fun i -> List.rev children.(i));
        preds = (fun i -> Option.to_list parent.(i));
        (* The CFG's reverse postorder also topologically orders the forest:
           a block's unique predecessor is always visited first. *)
        rpo = Cfg.reverse_postorder g;
      }
    in
    let blocks = Func.blocks func in
    let entry_state =
      let r =
        S.solve ~name:"cse-valnum" ~direction:Analysis.Dataflow.Forward
          ~graph:forest
          ~empty:Analysis.Valnum.empty
          ~init:(fun _ -> Analysis.Valnum.empty)
          ~transfer:(fun bi st ->
            List.fold_left step st blocks.(bi).Func.instrs)
          ()
      in
      r.S.input
    in
    let changed = ref false in
    let out =
      Array.mapi
        (fun bi (b : Func.block) ->
          let _, instrs =
            List.fold_left
              (fun (st, acc) i ->
                let st, i', c = Analysis.Valnum.rewrite st i in
                if c then changed := true;
                (st, i' :: acc))
              (entry_state.(bi), [])
              b.instrs
          in
          { b with instrs = List.rev instrs })
        blocks
    in
    if !changed then (Func.with_blocks func out, true) else (func, false)
end

module Isel = struct
  (* Facts known about a register's current value within a block. *)
  type fact =
    | Copy of Rtl.operand  (** register holds a copy of an operand (Reg/Imm) *)
    | Eaddr of Rtl.addr  (** register holds an effective address *)
    | Loaded of Rtl.width * Rtl.addr  (** register holds a value loaded from memory *)
    | Scaled of Reg.t * int  (** register = index * scale *)
    | Sum of Reg.t * Reg.t * int  (** register = base + index * scale *)

  let fact_regs = function
    | Copy (Reg r) -> [ r ]
    | Copy (Imm _) -> []
    | Copy (Mem (_, a)) | Eaddr a | Loaded (_, a) -> (
      match a with
      | Based (r, _) -> [ r ]
      | Indexed (b, i, _, _) -> [ b; i ]
      | Abs _ -> [])
    | Scaled (r, _) -> [ r ]
    | Sum (b, i, _) -> [ b; i ]

  type state = {
    machine : Machine.t;
    facts : (Reg.t, fact) Hashtbl.t;
    mutable changed : bool;
  }

  let kill st r =
    Hashtbl.remove st.facts r;
    let stale =
      Hashtbl.fold
        (fun key fact acc ->
          if List.exists (Reg.equal r) (fact_regs fact) then key :: acc else acc)
        st.facts []
    in
    List.iter (Hashtbl.remove st.facts) stale

  let kill_loads st =
    let stale =
      Hashtbl.fold
        (fun key fact acc ->
          match fact with Loaded _ -> key :: acc | _ -> acc)
        st.facts []
    in
    List.iter (Hashtbl.remove st.facts) stale

  (* --- Substitution --- *)

  let subst_reg_operand st r =
    match Hashtbl.find_opt st.facts r with
    | Some (Copy ((Reg _ | Imm _) as o)) -> Some o
    | Some (Loaded (w, a)) when st.machine.Machine.kind = Machine.Cisc ->
      Some (Rtl.Mem (w, a))
    | _ -> None

  (* Fold known effective addresses / index sums into an address. *)
  let subst_addr st (a : Rtl.addr) : Rtl.addr option =
    match a with
    | Based (r, d) -> (
      match Hashtbl.find_opt st.facts r with
      | Some (Eaddr (Based (b, d2))) -> Some (Based (b, d + d2))
      | Some (Eaddr (Abs (s, o))) -> Some (Abs (s, o + d))
      | Some (Eaddr (Indexed (b, i, sc, d2))) -> Some (Indexed (b, i, sc, d + d2))
      | Some (Sum (b, i, sc)) when st.machine.Machine.kind = Machine.Cisc ->
        Some (Indexed (b, i, sc, d))
      | Some (Copy (Reg s)) -> Some (Based (s, d))
      | _ -> None)
    | Indexed _ | Abs _ -> None

  let improve_operand st (o : Rtl.operand) : Rtl.operand option =
    match o with
    | Reg r -> subst_reg_operand st r
    | Imm _ -> None
    | Mem (w, a) -> (
      match subst_addr st a with
      | Some a' -> Some (Mem (w, a'))
      | None -> None)

  let improve_loc st (l : Rtl.loc) : Rtl.loc option =
    match l with
    | Lreg _ -> None
    | Lmem (w, a) -> (
      match subst_addr st a with
      | Some a' -> Some (Lmem (w, a'))
      | None -> None)

  (* Try a rewrite; accept only machine-legal results. *)
  let try_rewrite st current candidate =
    if Rtl.equal_instr current candidate then None
    else if Machine.legal_instr st.machine candidate then Some candidate
    else None

  (* One substitution step on an instruction; None when no improvement. *)
  let improve_instr st (i : Rtl.instr) : Rtl.instr option =
    let ( ||| ) a b = match a with Some _ -> a | None -> b () in
    match i with
    | Rtl.Move (l, s) ->
      (match improve_operand st s with
      | Some s' -> try_rewrite st i (Rtl.Move (l, s'))
      | None -> None)
      ||| fun () ->
      (match improve_loc st l with
      | Some l' -> try_rewrite st i (Rtl.Move (l', s))
      | None -> None)
    | Rtl.Lea (r, a) -> (
      match subst_addr st a with
      | Some a' -> try_rewrite st i (Rtl.Lea (r, a'))
      | None -> None)
    | Rtl.Binop (op, l, a, b) ->
      (match improve_operand st b with
      | Some b' -> try_rewrite st i (Rtl.Binop (op, l, a, b'))
      | None -> None)
      ||| (fun () ->
            match improve_operand st a with
            | Some a' -> try_rewrite st i (Rtl.Binop (op, l, a', b))
            | None -> None)
      ||| fun () ->
      (match improve_loc st l with
      | Some l' -> try_rewrite st i (Rtl.Binop (op, l', a, b))
      | None -> None)
    | Rtl.Unop (op, l, a) -> (
      match improve_operand st a with
      | Some a' -> try_rewrite st i (Rtl.Unop (op, l, a'))
      | None -> None)
    | Rtl.Cmp (a, b) ->
      (match improve_operand st a with
      | Some a' -> try_rewrite st i (Rtl.Cmp (a', b))
      | None -> None)
      ||| fun () ->
      (match improve_operand st b with
      | Some b' -> try_rewrite st i (Rtl.Cmp (a, b'))
      | None -> None)
    | Rtl.Ijump _ | Rtl.Branch _ | Rtl.Jump _ | Rtl.Call _ | Rtl.Ret
    | Rtl.Enter _ | Rtl.Leave | Rtl.Nop ->
      None

  (* Record what an instruction teaches us, after killing its definitions. *)
  let record st (i : Rtl.instr) =
    Reg.Set.iter (kill st) (Rtl.defs i);
    if Rtl.writes_mem i then kill_loads st;
    (match i with
    | Rtl.Call _ -> kill_loads st
    | _ -> ());
    match i with
    | Rtl.Move (Lreg d, (Reg s as o)) ->
      if not (Reg.equal d s) then Hashtbl.replace st.facts d (Copy o)
    | Rtl.Move (Lreg d, (Imm _ as o)) -> Hashtbl.replace st.facts d (Copy o)
    | Rtl.Move (Lreg d, Mem (w, a)) ->
      let ok_addr =
        match a with
        | Based (r, _) -> not (Reg.equal r d)
        | Indexed (b, i, _, _) -> (not (Reg.equal b d)) && not (Reg.equal i d)
        | Abs _ -> true
      in
      if ok_addr then Hashtbl.replace st.facts d (Loaded (w, a))
    | Rtl.Lea (d, a) ->
      let ok_addr =
        match a with
        | Based (r, _) -> not (Reg.equal r d)
        | Indexed (b, i, _, _) -> (not (Reg.equal b d)) && not (Reg.equal i d)
        | Abs _ -> true
      in
      if ok_addr then Hashtbl.replace st.facts d (Eaddr a)
    | Rtl.Binop (Shl, Lreg d, Reg i, Imm k)
      when (k = 1 || k = 2) && not (Reg.equal d i) ->
      Hashtbl.replace st.facts d (Scaled (i, 1 lsl k))
    | Rtl.Binop (Add, Lreg d, Reg b, Reg i)
      when (not (Reg.equal d b)) && not (Reg.equal d i) -> (
      match Hashtbl.find_opt st.facts i with
      | Some (Scaled (idx, sc)) when not (Reg.equal idx d) ->
        Hashtbl.replace st.facts d (Sum (b, idx, sc))
      | _ -> Hashtbl.replace st.facts d (Sum (b, i, 1)))
    | _ -> ()

  let forward_pass st instrs =
    List.map
      (fun i ->
        let rec fix i n =
          if n = 0 then i
          else
            match improve_instr st i with
            | Some i' ->
              st.changed <- true;
              fix i' (n - 1)
            | None -> i
        in
        let i = fix i 6 in
        record st i;
        i)
      instrs

  (* --- Backward pass: CISC fusions that need dead-after information --- *)

  let mentions iter instr r =
    let hit = ref false in
    iter (fun x -> if Reg.equal x r then hit := true) instr;
    !hit

  (* [live_out r]: whether [r] is live on exit from the block. *)
  let backward_pass st ~live_out instrs =
    if st.machine.Machine.kind <> Machine.Cisc then instrs
    else begin
      let orig = Array.of_list instrs in
      let arr = Array.copy orig in
      let n = Array.length arr in
      (* Whether [r] is dead after instruction [k] of the incoming block: the
         next instruction mentioning [r] writes it without reading it, or
         none does and [r] is not live out.  Fusions rewrite [arr], so scan
         [orig]. *)
      let dead_after k r =
        let rec scan j =
          if j = n then not (live_out r)
          else if mentions Rtl.iter_uses orig.(j) r then false
          else if mentions Rtl.iter_defs orig.(j) r then true
          else scan (j + 1)
        in
        scan (k + 1)
      in
      let removed = Array.make n false in
      (* Read-modify-write over one cell:
         t = M[m]; t = t op b; M[m] = t   =>   M[m] = M[m] op b *)
      for k = 0 to n - 3 do
        if (not removed.(k)) && (not removed.(k + 1)) && not removed.(k + 2)
        then begin
          match arr.(k), arr.(k + 1), arr.(k + 2) with
          | Rtl.Move (Lreg t, Mem (w, m)),
            Rtl.Binop (op, Lreg t', Reg t'', b),
            Rtl.Move (Lmem (w', m'), Reg t''')
            when Reg.equal t t' && Reg.equal t t'' && Reg.equal t t''' && w = w'
                 && m = m'
                 && (not (Reg.Set.mem t (Rtl.operand_regs b)))
                 && dead_after (k + 2) t ->
            let fused = Rtl.Binop (op, Lmem (w, m), Mem (w, m), b) in
            if Machine.legal_instr st.machine fused then begin
              arr.(k) <- fused;
              removed.(k + 1) <- true;
              removed.(k + 2) <- true;
              st.changed <- true
            end
          | _ -> ()
        end
      done;
      for k = 0 to n - 2 do
        if (not removed.(k)) && not removed.(k + 1) then begin
          match arr.(k), arr.(k + 1) with
          (* t = M[m] op b ; M[m] = t   =>   M[m] = M[m] op b *)
          | Rtl.Binop (op, Lreg t, Mem (w, m), b), Rtl.Move (Lmem (w', m'), Reg t')
            when Reg.equal t t' && w = w' && m = m' && dead_after (k + 1) t ->
            let fused = Rtl.Binop (op, Lmem (w, m), Mem (w, m), b) in
            if Machine.legal_instr st.machine fused then begin
              arr.(k) <- fused;
              removed.(k + 1) <- true;
              st.changed <- true
            end
          (* t = src ; M[m] = t   =>   M[m] = src (mem-to-mem / imm store) *)
          | Rtl.Move (Lreg t, src), Rtl.Move (Lmem (w, m), Reg t')
            when Reg.equal t t' && dead_after (k + 1) t ->
            let fused = Rtl.Move (Rtl.Lmem (w, m), src) in
            if Machine.legal_instr st.machine fused then begin
              arr.(k) <- fused;
              removed.(k + 1) <- true;
              st.changed <- true
            end
          | _ -> ()
        end
      done;
      List.filteri (fun k _ -> not removed.(k)) (Array.to_list arr)
    end

  let run machine func =
    (* Only the CISC fusions read liveness. *)
    let live = lazy (Flow.Liveness.compute func) in
    let st = { machine; facts = Hashtbl.create 32; changed = false } in
    let blocks =
      Array.mapi
        (fun bi (b : Flow.Func.block) ->
          Hashtbl.reset st.facts;
          let instrs = forward_pass st b.instrs in
          let live_out r = Flow.Liveness.mem_out (Lazy.force live) bi r in
          let instrs = backward_pass st ~live_out instrs in
          { b with instrs })
        (Flow.Func.blocks func)
    in
    if st.changed then (Flow.Func.with_blocks func blocks, true) else (func, false)
end
