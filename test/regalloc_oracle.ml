(* The register allocator that [Opt.Regalloc] replaced, kept verbatim as
   its oracle: the interference graph is a [Hashtbl] of [Reg.Set]s, and
   coloring runs on hash tables, [List.mem] forbidden lists and a scan
   of every move pair per node.  [Opt.Regalloc] must build the same
   interference sets, make the same color and spill choices every
   round, and produce the same function.  The one edit: the live-after
   walk goes through [Regs.fold], as [Regs.iter] is gone. *)

open Ir
open Flow

let k_colors = List.length Conv.allocatable

(* --- Interference graph --- *)

type graph = {
  adj : (Reg.t, Reg.Set.t) Hashtbl.t;
  mutable moves : (Reg.t * Reg.t) list;  (** move pairs for color bias *)
  occ : (Reg.t, int) Hashtbl.t;  (** occurrence counts (spill costs) *)
}

let adj_of g r =
  match Hashtbl.find_opt g.adj r with Some s -> s | None -> Reg.Set.empty

let interesting = function
  | Reg.Virt _ -> true
  | Reg.Phys _ -> true
  | Reg.Cc -> false

let add_edge g a b =
  if (not (Reg.equal a b)) && interesting a && interesting b
     && (Reg.is_virt a || Reg.is_virt b)
  then begin
    let sa = adj_of g a in
    let sa' = Reg.Set.add b sa in
    (* [Set.add] returns its argument when [b] is already there: the edge
       exists in both directions, nothing to store. *)
    if sa' != sa then begin
      Hashtbl.replace g.adj a sa';
      Hashtbl.replace g.adj b (Reg.Set.add a (adj_of g b))
    end
  end

let build_graph func =
  let live = Liveness.compute func in
  let g = { adj = Hashtbl.create 256; moves = []; occ = Hashtbl.create 256 } in
  (* Make sure every virtual has a node even if it never interferes, and
     tally occurrence counts (spill costs) over the same traversal. *)
  Array.iter
    (fun (b : Func.block) ->
      List.iter
        (fun i ->
          Reg.Set.iter
            (fun r ->
              if Reg.is_virt r then begin
                Hashtbl.replace g.occ r
                  (1 + Option.value ~default:0 (Hashtbl.find_opt g.occ r));
                if not (Hashtbl.mem g.adj r) then
                  Hashtbl.replace g.adj r Reg.Set.empty
              end)
            (Reg.Set.union (Rtl.uses i) (Rtl.defs i)))
        b.instrs)
    (Func.blocks func);
  for bi = 0 to Func.num_blocks func - 1 do
    ignore
      (Liveness.fold_backward live
         (fun () instr ~live_after ->
           (* Each definition interferes with everything live after it and
              with the instruction's other definitions — except, for a
              move, its source. *)
           let interfere =
             match instr with
             | Rtl.Move (Lreg d, Reg s) ->
               g.moves <- (d, s) :: g.moves;
               fun d x -> if not (Reg.equal x s) then add_edge g d x
             | _ -> add_edge g
           in
           Rtl.iter_defs
             (fun d ->
               Liveness.Regs.fold (fun x () -> interfere d x) live_after ();
               Rtl.iter_defs (interfere d) instr)
             instr;
           ())
         bi ~init:())
  done;
  g

(* --- Coloring --- *)

type assignment = Colored of int | Spilled

let color_graph g ~unspillable =
  let virtuals =
    Hashtbl.fold (fun r _ acc -> if Reg.is_virt r then r :: acc else acc) g.adj []
    |> List.sort Reg.compare
  in
  let removed = Hashtbl.create 64 in
  let degree = Hashtbl.create 64 in
  List.iter
    (fun r ->
      Hashtbl.replace degree r
        (Reg.Set.cardinal
           (Reg.Set.filter interesting (adj_of g r))))
    virtuals;
  let deg r = Hashtbl.find degree r in
  let stack = ref [] in
  let num_remaining = ref (List.length virtuals) in
  (* Worklist of possibly-simplifiable nodes.  Degrees only decrease during
     simplify, so a dequeued node is either still low-degree or stale. *)
  let low = Queue.create () in
  List.iter (fun r -> if deg r < k_colors then Queue.add r low) virtuals;
  let remove r =
    stack := r :: !stack;
    Hashtbl.replace removed r true;
    decr num_remaining;
    Reg.Set.iter
      (fun x ->
        if Reg.is_virt x && not (Hashtbl.mem removed x) then begin
          let d = Hashtbl.find degree x - 1 in
          Hashtbl.replace degree x d;
          if d = k_colors - 1 then Queue.add x low
        end)
      (adj_of g r)
  in
  while !num_remaining > 0 do
    match Queue.take_opt low with
    | Some r -> if not (Hashtbl.mem removed r) then remove r
    | None ->
      (* No simplifiable node: pick a spill candidate — cheap occurrences,
         high degree — and push it optimistically. *)
      let cost r =
        let occ = Option.value ~default:1 (Hashtbl.find_opt g.occ r) in
        float_of_int occ /. float_of_int (1 + deg r)
      in
      let pick pred =
        List.fold_left
          (fun best r ->
            if Hashtbl.mem removed r || not (pred r) then best
            else
              match best with
              | None -> Some r
              | Some b -> if cost r < cost b then Some r else best)
          None virtuals
      in
      let victim =
        match pick (fun r -> not (Reg.Set.mem r unspillable)) with
        | Some r -> r
        | None -> Option.get (pick (fun _ -> true))
      in
      remove victim
  done;
  (* Select phase. *)
  let assignment = Hashtbl.create 64 in
  let phys_index r = match r with Reg.Phys i -> Some i | _ -> None in
  let color_of x =
    match x with
    | Reg.Phys i -> Some i
    | Reg.Virt _ -> (
      match Hashtbl.find_opt assignment x with
      | Some (Colored c) -> Some c
      | _ -> None)
    | Reg.Cc -> None
  in
  List.iter
    (fun r ->
      let forbidden =
        Reg.Set.fold
          (fun x acc ->
            match color_of x with Some c -> c :: acc | None -> acc)
          (adj_of g r) []
      in
      let allowed =
        List.filter
          (fun pr ->
            match phys_index pr with
            | Some c -> not (List.mem c forbidden)
            | None -> false)
          Conv.allocatable
      in
      match allowed with
      | [] -> Hashtbl.replace assignment r Spilled
      | _ :: _ ->
        (* Move bias: prefer a partner's color when it is allowed. *)
        let partner_colors =
          List.filter_map
            (fun (a, b) ->
              if Reg.equal a r then color_of b
              else if Reg.equal b r then color_of a
              else None)
            g.moves
        in
        let pick =
          match
            List.find_opt
              (fun pr ->
                match phys_index pr with
                | Some c -> List.mem c partner_colors
                | None -> false)
              allowed
          with
          | Some pr -> pr
          | None -> List.hd allowed
        in
        Hashtbl.replace assignment r
          (Colored (Option.get (phys_index pick))))
    !stack;
  assignment

(* --- Spilling --- *)

(* Rewrite instructions touching spilled registers through fresh temps and
   frame slots.  [slot_of] maps a spilled register to its fp offset. *)
let rewrite_spills func spilled slot_of =
  let changed_temps = ref Reg.Set.empty in
  let rewrite_instr instr =
    let touched =
      Reg.Set.filter
        (fun r -> Reg.Set.mem r spilled)
        (Reg.Set.union (Rtl.uses instr) (Rtl.defs instr))
    in
    if Reg.Set.is_empty touched then [ instr ]
    else begin
      let mapping =
        Reg.Set.fold
          (fun r acc ->
            let t = Func.fresh_reg func in
            changed_temps := Reg.Set.add t !changed_temps;
            Reg.Map.add r t acc)
          touched Reg.Map.empty
      in
      let subst r = match Reg.Map.find_opt r mapping with Some t -> t | None -> r in
      let core = Rtl.map_regs subst instr in
      let loads =
        Reg.Set.fold
          (fun r acc ->
            if Reg.Set.mem r (Rtl.uses instr) then
              Rtl.Move
                (Lreg (Reg.Map.find r mapping),
                 Mem (Word, Based (Conv.fp, slot_of r)))
              :: acc
            else acc)
          touched []
      in
      let stores =
        Reg.Set.fold
          (fun r acc ->
            if Reg.Set.mem r (Rtl.defs instr) then
              Rtl.Move
                (Lmem (Word, Based (Conv.fp, slot_of r)),
                 Reg (Reg.Map.find r mapping))
              :: acc
            else acc)
          touched []
      in
      loads @ (core :: stores)
    end
  in
  let func =
    Func.map_instrs (fun instrs -> List.concat_map rewrite_instr instrs) func
  in
  (func, !changed_temps)

(* --- Frame finalization --- *)

let enter_size func =
  match (Func.block func 0).instrs with
  | Rtl.Enter n :: _ -> n
  | _ ->
    Telemetry.Diag.error Telemetry.Diag.Internal ~func:(Func.name func)
      ~pass:"regalloc" "function does not start with Enter"

let patch_frame func ~extra_bytes ~saves =
  let aligned = (extra_bytes + 7) land lnot 7 in
  let blocks =
    Array.map
      (fun (b : Func.block) ->
        let instrs =
          List.concat_map
            (fun i ->
              match i with
              | Rtl.Enter n -> (Rtl.Enter (n + aligned) :: List.map fst saves)
              | Rtl.Leave -> List.map snd saves @ [ Rtl.Leave ]
              | other -> [ other ])
            b.instrs
        in
        { b with instrs })
      (Func.blocks func)
  in
  Func.with_blocks func blocks

(* --- Entry point --- *)

let apply_assignment func assignment =
  let subst r =
    match r with
    | Reg.Virt _ -> (
      match Hashtbl.find_opt assignment r with
      | Some (Colored c) -> Reg.Phys c
      | Some Spilled | None ->
        Telemetry.Diag.error Telemetry.Diag.Internal ~func:(Func.name func)
          ~pass:"regalloc" "unassigned register %s" (Reg.to_string r))
    | Reg.Phys _ | Reg.Cc -> r
  in
  Func.map_instrs (fun instrs -> List.map (Rtl.map_regs subst) instrs) func

let remove_self_moves func =
  Func.map_instrs
    (fun instrs ->
      List.filter
        (fun i ->
          match i with
          | Rtl.Move (Lreg d, Reg s) -> not (Reg.equal d s)
          | _ -> true)
        instrs)
    func

let run ?(log = Telemetry.Log.null) _machine func =
  let fname = Func.name func in
  let base_frame = enter_size func in
  let next_slot = ref base_frame in
  let alloc_slot () =
    next_slot := !next_slot + 4;
    - !next_slot
  in
  let slots = Hashtbl.create 16 in
  let slot_of r =
    match Hashtbl.find_opt slots r with
    | Some s -> s
    | None ->
      let s = alloc_slot () in
      Hashtbl.replace slots r s;
      s
  in
  let rec attempt func unspillable round =
    if round > 12 then
      Telemetry.Diag.error Telemetry.Diag.No_convergence ~func:fname
        ~pass:"regalloc" "register allocation did not converge after %d rounds"
        (round - 1);
    let g = build_graph func in
    let assignment = color_graph g ~unspillable in
    let spilled =
      Hashtbl.fold
        (fun r a acc -> if a = Spilled then Reg.Set.add r acc else acc)
        assignment Reg.Set.empty
    in
    if Reg.Set.is_empty spilled then (func, assignment)
    else begin
      Reg.Set.iter
        (fun r ->
          Telemetry.Log.emit log (fun () ->
              Telemetry.Log.Regalloc_spill
                { func = fname; reg = Reg.to_string r; round }))
        spilled;
      let func, temps = rewrite_spills func spilled slot_of in
      attempt func (Reg.Set.union unspillable temps) (round + 1)
    end
  in
  let func, assignment = attempt func Reg.Set.empty 0 in
  let func = apply_assignment func assignment in
  (* Callee-save registers actually used get save/restore slots. *)
  let used_callee =
    let used = ref Reg.Set.empty in
    Array.iter
      (fun (b : Func.block) ->
        List.iter
          (fun i ->
            Reg.Set.iter
              (fun r ->
                if Reg.Set.mem r Conv.callee_save then used := Reg.Set.add r !used)
              (Rtl.defs i))
          b.instrs)
      (Func.blocks func);
    !used
  in
  let saves =
    Reg.Set.fold
      (fun r acc ->
        let off = alloc_slot () in
        (Rtl.Move (Rtl.Lmem (Word, Based (Conv.fp, off)), Reg r),
         Rtl.Move (Rtl.Lreg r, Mem (Word, Based (Conv.fp, off))))
        :: acc)
      used_callee []
  in
  let extra = !next_slot - base_frame in
  let func =
    if extra > 0 || saves <> [] then patch_frame func ~extra_bytes:extra ~saves
    else func
  in
  remove_self_moves func
