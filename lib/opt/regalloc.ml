open Ir
open Flow

let k_colors = List.length Conv.allocatable
let num_phys = Conv.num_regs
let bits = Analysis.Bitvec.bits_per_word

(* Columns follow [Analysis.Live.index]: [Cc] 0, [Phys i] [1 + i], [Virt n]
   [first_virt + n]. *)
let first_virt = Analysis.Live.index (Reg.Virt 0)
let phys = Array.init num_phys (fun i -> Reg.Phys i)

let is_callee_save =
  Array.init num_phys (fun i -> Reg.Set.mem phys.(i) Conv.callee_save)

(* Color numbers in [Conv.allocatable] order. *)
let allocatable =
  Array.of_list
    (List.filter_map
       (function Reg.Phys i -> Some i | Reg.Virt _ | Reg.Cc -> None)
       Conv.allocatable)

(* --- Bit rows --- *)

let get m off k = m.(off + (k / bits)) land (1 lsl (k mod bits)) <> 0

let set m off k =
  let j = off + (k / bits) in
  m.(j) <- m.(j) lor (1 lsl (k mod bits))

let clear m off k =
  let j = off + (k / bits) in
  m.(j) <- m.(j) land lnot (1 lsl (k mod bits))

let rec popcount n w = if w = 0 then n else popcount (n + 1) (w land (w - 1))

(* Index of the single bit set in [p]. *)
let bit_index p =
  let k, p = if p lsr 32 <> 0 then (32, p lsr 32) else (0, p) in
  let k, p = if p lsr 16 <> 0 then (k + 16, p lsr 16) else (k, p) in
  let k, p = if p lsr 8 <> 0 then (k + 8, p lsr 8) else (k, p) in
  let k, p = if p lsr 4 <> 0 then (k + 4, p lsr 4) else (k, p) in
  let k, p = if p lsr 2 <> 0 then (k + 2, p lsr 2) else (k, p) in
  if p lsr 1 <> 0 then k + 1 else k

(* [f k] for every bit [k] set in the [words]-int row at [m.(off)]. *)
let iter_row f m off words =
  for w = 0 to words - 1 do
    let word = ref m.(off + w) in
    while !word <> 0 do
      let low = !word land - !word in
      f ((w * bits) + bit_index low);
      word := !word lxor low
    done
  done

(* --- Interference graph --- *)

(* One bit row per physical register (rows [0 .. num_phys - 1]) and per
   virtual present (row [num_phys + rank], ranks ascending by virtual
   number).  A physical row only collects the edges its definitions add;
   they are transposed into the virtual rows once the scan is done. *)
type graph = {
  virt : int array;  (** rank -> virtual number *)
  rank : int array;  (** virtual number -> rank, or -1 when absent *)
  words : int;  (** ints per row *)
  rows : int array;
  occ : int array;  (** by rank: instructions mentioning it (spill cost) *)
  partners : int list array;  (** by rank: columns of its move partners *)
}

let row_off g r = (num_phys + r) * g.words

let row_of g = function
  | Reg.Phys i -> i
  | Reg.Virt n -> num_phys + g.rank.(n)
  | Reg.Cc -> -1

let rank_exn g = function
  | Reg.Virt v when v < Array.length g.rank && g.rank.(v) >= 0 -> g.rank.(v)
  | r -> invalid_arg ("Regalloc: not a virtual of the graph: " ^ Reg.to_string r)

(* Rank of column [k], or -1 when [k] is not a virtual. *)
let rank_of_col g k = if k < first_virt then -1 else g.rank.(k - first_virt)

(* Occurrence counts by virtual number: each instruction counts once per
   register it mentions.  The array grows should a virtual lie beyond
   the function's supply. *)
let count_occurrences func =
  let occ = ref (Array.make (Reg.Supply.next_index (Func.vsupply func)) 0) in
  let stamp = ref (Array.make (Array.length !occ) (-1)) in
  let now = ref 0 in
  let note = function
    | Reg.Virt n ->
      if n >= Array.length !occ then begin
        let grow a fill =
          Array.append a (Array.make (n + 1 - Array.length a) fill)
        in
        occ := grow !occ 0;
        stamp := grow !stamp (-1)
      end;
      if !stamp.(n) <> !now then begin
        !stamp.(n) <- !now;
        !occ.(n) <- !occ.(n) + 1
      end
    | Reg.Phys _ | Reg.Cc -> ()
  in
  Array.iter
    (fun (b : Func.block) ->
      List.iter
        (fun i ->
          Rtl.iter_uses note i;
          Rtl.iter_defs note i;
          incr now)
        b.instrs)
    (Func.blocks func);
  !occ

let build_graph func =
  let occ_of_num = count_occurrences func in
  let width = Array.length occ_of_num in
  let rank = Array.make width (-1) in
  let n = ref 0 in
  for v = 0 to width - 1 do
    if occ_of_num.(v) > 0 then begin
      rank.(v) <- !n;
      incr n
    end
  done;
  let virt = Array.make !n 0 in
  Array.iteri (fun v r -> if r >= 0 then virt.(r) <- v) rank;
  let words = ((first_virt + width - 1) / bits) + 1 in
  let g =
    {
      virt;
      rank;
      words;
      rows = Array.make ((num_phys + !n) * words) 0;
      occ = Array.map (fun v -> occ_of_num.(v)) virt;
      partners = Array.make !n [];
    }
  in
  let m = g.rows in
  let live = Liveness.compute func in
  (* Each definition interferes with everything live after it and with
     the instruction's other definitions — except, for a move, its
     source: that bit is cleared again unless an earlier scan had set
     it. *)
  let def instr live_after d =
    match d with
    | Reg.Cc -> ()
    | _ ->
      let off = row_of g d * words in
      Liveness.Regs.or_into live_after m off;
      Rtl.iter_defs (fun x -> set m off (Analysis.Live.index x)) instr
  in
  let partner a b =
    match a with
    | Reg.Virt v ->
      let r = rank.(v) in
      g.partners.(r) <- Analysis.Live.index b :: g.partners.(r)
    | Reg.Phys _ | Reg.Cc -> ()
  in
  for bi = 0 to Func.num_blocks func - 1 do
    Liveness.fold_backward live
      (fun () instr ~live_after ->
        match instr with
        | Rtl.Move (Lreg d, Reg s) when not (Reg.equal d Reg.Cc) ->
          partner d s;
          partner s d;
          let off = row_of g d * words and ks = Analysis.Live.index s in
          let had = get m off ks in
          def instr live_after d;
          if not had then clear m off ks
        | _ -> Rtl.iter_defs (def instr live_after) instr)
      bi ~init:()
  done;
  (* Symmetrise into the virtual rows, then drop [Cc] and self bits. *)
  let col_of_row a =
    if a < num_phys then 1 + a else first_virt + virt.(a - num_phys)
  in
  for a = 0 to num_phys + !n - 1 do
    let ka = col_of_row a in
    iter_row
      (fun k ->
        let r = rank_of_col g k in
        if r >= 0 then set m (row_off g r) ka)
      m (a * words) words
  done;
  for r = 0 to !n - 1 do
    let off = row_off g r in
    clear m off 0;
    clear m off (first_virt + virt.(r))
  done;
  g

let virtuals g = Array.to_list (Array.map (fun v -> Reg.Virt v) g.virt)

let reg_of_col k =
  if k = 0 then Reg.Cc
  else if k < first_virt then phys.(k - 1)
  else Reg.Virt (k - first_virt)

let interference g r =
  let acc = ref Reg.Set.empty in
  iter_row
    (fun k -> acc := Reg.Set.add (reg_of_col k) !acc)
    g.rows (row_off g (rank_exn g r)) g.words;
  !acc

(* --- Coloring --- *)

type coloring = {
  graph : graph;
  colors : int array;  (** by rank: physical register, or -1 if spilled *)
}

let color_graph g ~unspillable =
  let n = Array.length g.virt in
  let m = g.rows and words = g.words in
  let degree =
    Array.init n (fun r ->
        let off = row_off g r and d = ref 0 in
        for w = off to off + words - 1 do
          d := popcount !d m.(w)
        done;
        !d)
  in
  let removed = Array.make n false in
  (* Removal order; select pops it from the end. *)
  let stack = Array.make n 0 and depth = ref 0 in
  (* Worklist of possibly-simplifiable nodes.  Degrees only decrease
     during simplify, so a node enters it at most once: at the start, or
     when its degree falls to [k_colors - 1]. *)
  let low = Array.make n 0 and head = ref 0 and tail = ref 0 in
  let push r =
    low.(!tail) <- r;
    incr tail
  in
  for r = 0 to n - 1 do
    if degree.(r) < k_colors then push r
  done;
  let remove r =
    stack.(!depth) <- r;
    incr depth;
    removed.(r) <- true;
    iter_row
      (fun k ->
        let x = rank_of_col g k in
        if x >= 0 && not removed.(x) then begin
          let d = degree.(x) - 1 in
          degree.(x) <- d;
          if d = k_colors - 1 then push x
        end)
      m (row_off g r) words
  in
  let spillable =
    lazy
      (Array.map
         (fun v -> not (Reg.Set.mem (Reg.Virt v) unspillable))
         g.virt)
  in
  while !depth < n do
    if !head < !tail then begin
      let r = low.(!head) in
      incr head;
      if not removed.(r) then remove r
    end
    else begin
      (* No simplifiable node: pick a spill candidate — cheap occurrences,
         high degree — and push it optimistically. *)
      let cost r = float_of_int g.occ.(r) /. float_of_int (1 + degree.(r)) in
      let pick pred =
        let best = ref (-1) in
        for r = 0 to n - 1 do
          if (not removed.(r)) && pred r
             && (!best < 0 || cost r < cost !best)
          then best := r
        done;
        !best
      in
      let victim =
        match pick (Array.get (Lazy.force spillable)) with
        | -1 -> pick (fun _ -> true)
        | r -> r
      in
      remove victim
    end
  done;
  (* Select phase: the first color in [Conv.allocatable] order no
     neighbour holds, preferring one a move partner holds. *)
  let colors = Array.make n (-1) in
  let color_of_col k =
    if k = 0 then -1
    else if k < first_virt then k - 1
    else colors.(g.rank.(k - first_virt))
  in
  let mask_of c = if c < 0 then 0 else 1 lsl c in
  let first allowed =
    let rec go i =
      if i = Array.length allocatable then -1
      else if allowed land (1 lsl allocatable.(i)) <> 0 then allocatable.(i)
      else go (i + 1)
    in
    go 0
  in
  for i = n - 1 downto 0 do
    let r = stack.(i) in
    let forbidden = ref 0 in
    iter_row
      (fun k -> forbidden := !forbidden lor mask_of (color_of_col k))
      m (row_off g r) words;
    let allowed = lnot !forbidden in
    let partners =
      List.fold_left
        (fun acc k -> acc lor mask_of (color_of_col k))
        0 g.partners.(r)
    in
    colors.(r) <-
      (match first (allowed land partners) with
      | -1 -> first allowed
      | c -> c)
  done;
  { graph = g; colors }

let color c r =
  match c.colors.(rank_exn c.graph r) with -1 -> None | i -> Some i

let spilled c =
  let acc = ref Reg.Set.empty in
  Array.iteri
    (fun r i -> if i < 0 then acc := Reg.Set.add (Reg.Virt c.graph.virt.(r)) !acc)
    c.colors;
  !acc

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

(* Rewrite every virtual to its color, delete register self-moves and
   note which physical registers the result defines. *)
let apply_coloring func c =
  let subst r =
    match r with
    | Reg.Virt _ -> (
      match color c r with
      | Some i -> phys.(i)
      | None | (exception Invalid_argument _) ->
        Telemetry.Diag.error Telemetry.Diag.Internal ~func:(Func.name func)
          ~pass:"regalloc" "unassigned register %s" (Reg.to_string r))
    | Reg.Phys _ | Reg.Cc -> r
  in
  let defined = Array.make num_phys false in
  let note = function
    | Reg.Phys i -> defined.(i) <- true
    | Reg.Virt _ | Reg.Cc -> ()
  in
  let func =
    Func.map_instrs
      (List.filter_map (fun i ->
           let i = Rtl.map_regs subst i in
           Rtl.iter_defs note i;
           match i with
           | Rtl.Move (Lreg d, Reg s) when Reg.equal d s -> None
           | _ -> Some i))
      func
  in
  (func, defined)

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
    let c = color_graph (build_graph func) ~unspillable in
    let spilled = spilled c in
    if Reg.Set.is_empty spilled then (func, c)
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
  let func, c = attempt func Reg.Set.empty 0 in
  let func, defined = apply_coloring func c in
  (* Callee-save registers actually used get save/restore slots. *)
  let saves = ref [] in
  for i = 0 to num_phys - 1 do
    if defined.(i) && is_callee_save.(i) then begin
      let r = phys.(i) and off = alloc_slot () in
      saves :=
        (Rtl.Move (Rtl.Lmem (Word, Based (Conv.fp, off)), Reg r),
         Rtl.Move (Rtl.Lreg r, Mem (Word, Based (Conv.fp, off))))
        :: !saves
    end
  done;
  let saves = !saves in
  let extra = !next_slot - base_frame in
  if extra > 0 || saves <> [] then patch_frame func ~extra_bytes:extra ~saves
  else func
