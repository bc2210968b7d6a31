open Ir
open Flow

let removable instr ~live_after =
  (match instr with
  | Rtl.Move (Lreg d, Reg s) -> Reg.equal d s
  | _ -> false)
  || (Rtl.is_pure instr && Liveness.dead_result live_after instr)

(* The first thing [instrs] does with [r]: read it, write it, or
   neither. *)
let first_touch r instrs =
  let reads i =
    let hit = ref false in
    Rtl.iter_uses (fun u -> if Reg.equal u r then hit := true) i;
    !hit
  and writes i =
    let hit = ref false in
    Rtl.iter_defs (fun d -> if Reg.equal d r then hit := true) i;
    !hit
  in
  let rec go = function
    | [] -> `Neither
    | i :: rest ->
      if reads i then `Read else if writes i then `Written else go rest
  in
  go instrs

(* Whether [r], live out of block [b] in [live], still reaches a read in
   [blocks] (the swept ones): a path out of [b] through blocks [r] was
   live into, and that do not write it, to a block that reads it first.
   Every such path was there before the sweep. *)
let still_read g live blocks b r =
  let seen = Array.make (Array.length blocks) false in
  let rec reach = function
    | [] -> false
    | s :: rest ->
      if seen.(s) || not (Liveness.mem_in live s r) then reach rest
      else begin
        seen.(s) <- true;
        match first_touch r blocks.(s).Func.instrs with
        | `Read -> true
        | `Written -> reach rest
        | `Neither -> reach (Cfg.succs g s @ rest)
      end
  in
  reach (Cfg.succs g b)

(* One sweep per solve.  Within a block, a dropped instruction adds no
   uses, so a dead chain goes in one walk.  The solved facts are still the
   swept function's when every edited block keeps its live-in and every
   read it lost is still reached by another; otherwise a read the sweep
   removed may have been all that kept a register live (around a loop,
   say), so solve again and sweep the result. *)
let run func =
  let rec go func changed =
    let live = Liveness.compute func in
    let blocks = Array.copy (Func.blocks func) in
    let edited = ref false and stale = ref false and lost_reads = ref [] in
    Array.iteri
      (fun i (b : Func.block) ->
        match Liveness.sweep live removable i with
        | None -> ()
        | Some { kept; live_in_changed; lost } ->
          edited := true;
          blocks.(i) <- { b with instrs = kept };
          if live_in_changed then stale := true
          else if lost <> [] then lost_reads := (i, lost) :: !lost_reads)
      (Func.blocks func);
    if not !edited then (func, changed)
    else begin
      let stale =
        !stale
        || !lost_reads <> []
           &&
           let g = Cfg.make func in
           not
             (List.for_all
                (fun (i, lost) -> List.for_all (still_read g live blocks i) lost)
                !lost_reads)
      in
      let func' = Func.with_blocks func blocks in
      if stale then go func' true
      else begin
        ignore (Liveness.adopt live func');
        (func', true)
      end
    end
  in
  go func false
