open Ir

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

(* [facts] maps a register to what it holds.  [users] indexes the other
   way — register -> registers whose fact was recorded mentioning it — and
   [loaded] lists the registers given a [Loaded] fact, so killing reads
   only the entries that can be affected.  Entries go stale when a fact is
   replaced or removed; each is checked against the current fact before it
   is acted on, so a stale one does nothing. *)
type state = {
  machine : Machine.t;
  facts : (Reg.t, fact) Hashtbl.t;
  users : (Reg.t, Reg.t list) Hashtbl.t;
  mutable loaded : Reg.t list;
  mutable changed : bool;
}

let reset st =
  Hashtbl.reset st.facts;
  Hashtbl.reset st.users;
  st.loaded <- []

let learn st d fact =
  Hashtbl.replace st.facts d fact;
  List.iter
    (fun r ->
      let us = Option.value (Hashtbl.find_opt st.users r) ~default:[] in
      Hashtbl.replace st.users r (d :: us))
    (fact_regs fact);
  match fact with Loaded _ -> st.loaded <- d :: st.loaded | _ -> ()

let kill st r =
  Hashtbl.remove st.facts r;
  match Hashtbl.find_opt st.users r with
  | None -> ()
  | Some us ->
    Hashtbl.remove st.users r;
    List.iter
      (fun u ->
        match Hashtbl.find_opt st.facts u with
        | Some fact when List.exists (Reg.equal r) (fact_regs fact) ->
          Hashtbl.remove st.facts u
        | _ -> ())
      us

let kill_loads st =
  List.iter
    (fun u ->
      match Hashtbl.find_opt st.facts u with
      | Some (Loaded _) -> Hashtbl.remove st.facts u
      | _ -> ())
    st.loaded;
  st.loaded <- []

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
  Rtl.iter_defs (kill st) i;
  if Rtl.writes_mem i then kill_loads st;
  (match i with
  | Rtl.Call _ -> kill_loads st
  | _ -> ());
  match i with
  | Rtl.Move (Lreg d, (Reg s as o)) ->
    if not (Reg.equal d s) then learn st d (Copy o)
  | Rtl.Move (Lreg d, (Imm _ as o)) -> learn st d (Copy o)
  | Rtl.Move (Lreg d, Mem (w, a)) ->
    let ok_addr =
      match a with
      | Based (r, _) -> not (Reg.equal r d)
      | Indexed (b, i, _, _) -> (not (Reg.equal b d)) && not (Reg.equal i d)
      | Abs _ -> true
    in
    if ok_addr then learn st d (Loaded (w, a))
  | Rtl.Lea (d, a) ->
    let ok_addr =
      match a with
      | Based (r, _) -> not (Reg.equal r d)
      | Indexed (b, i, _, _) -> (not (Reg.equal b d)) && not (Reg.equal i d)
      | Abs _ -> true
    in
    if ok_addr then learn st d (Eaddr a)
  | Rtl.Binop (Shl, Lreg d, Reg i, Imm k)
    when (k = 1 || k = 2) && not (Reg.equal d i) ->
    learn st d (Scaled (i, 1 lsl k))
  | Rtl.Binop (Add, Lreg d, Reg b, Reg i)
    when (not (Reg.equal d b)) && not (Reg.equal d i) -> (
    match Hashtbl.find_opt st.facts i with
    | Some (Scaled (idx, sc)) when not (Reg.equal idx d) ->
      learn st d (Sum (b, idx, sc))
    | _ -> learn st d (Sum (b, i, 1)))
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
  let st =
    {
      machine;
      facts = Hashtbl.create 32;
      users = Hashtbl.create 32;
      loaded = [];
      changed = false;
    }
  in
  let blocks =
    Array.mapi
      (fun bi (b : Flow.Func.block) ->
        reset st;
        let instrs = forward_pass st b.instrs in
        let live_out r = Flow.Liveness.mem_out (Lazy.force live) bi r in
        let instrs = backward_pass st ~live_out instrs in
        { b with instrs })
      (Flow.Func.blocks func)
  in
  if st.changed then (Flow.Func.with_blocks func blocks, true) else (func, false)
