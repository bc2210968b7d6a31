open Ir
module D = Interp.Decoded

(* --- the threaded-code execution engine -----------------------------

   A loop over the decoded instructions would still pay per executed
   instruction for work whose answer is fixed the moment a function is
   decoded: the dispatch match over [dinstr], the operand/location
   matches inside it, the heartbeat modulus, the budget mask and the
   step decrement-and-test.  This engine compiles each decoded function
   once into OCaml closure
   chains — one handler per entry point — and fuses every superblock
   (a straight-line run of simple instructions plus its terminating
   transfer) into a single handler that settles the bookkeeping for the
   whole run up front and then executes precompiled per-instruction
   effect closures back to back.  A compare feeding the terminating
   conditional branch is folded into the transfer itself, so the
   hottest loop shape (test + branch) is one closure call.  The
   instruction shapes that dominate the executed mix (register moves,
   ALU ops on registers and immediates, [reg + disp] loads and stores,
   compares of a register with an immediate or a register) compile to
   one closure each that reads the register file directly and computes
   with the same [Arith]/[Image] function as the generic composition;
   every other shape is composed from operand closures.

   The bit-stability contract is a re-resolving reference loop's (kept
   in the test suite), and the equivalence tests hold the engine to it
   over the full benchmark matrix:

   - [on_fetch] fires once per executed instruction, in execution
     order, interleaved with the instruction effects exactly as the
     reference interleaves them — a faulting run's fetch stream is the
     precise prefix, not a superblock's worth of prefetch;
   - a fed [bank] sees the same fetches a superblock at a time: the
     dispatch loop hands it each superblock's fixed fetch slice before
     running the handler, and falls back to per-fetch feeding for the
     rest of the run once the steps left no longer cover a slice, so a
     timed-out run's statistics are exact too (a faulting one has no
     result to carry them);
   - [Sim_progress] heartbeats carry the same instruction counts
     (tracked by a next-multiple threshold instead of a per-step
     modulus);
   - step-budget exhaustion raises at the exact instruction: a
     superblock whose remaining fuel does not cover its straight-line
     prefix falls back to a per-instruction tail, so a timed-out
     result's partial counts and output are those of the reference;
   - an attached budget is polled at the same 2048-instruction
     boundaries (a superblock crossing several polls once — cooperative
     cancellation latency is wall-clock-bound either way, and a
     cancelled run never becomes a measurement).

   Runtime faults ([Runtime_error]) abort the run with no result, so
   the counters accumulated by an interrupted superblock are never
   observable. *)

exception Exit_program of int
exception Out_of_steps

let error fmt =
  Format.kasprintf (fun s -> raise (Interp.Runtime_error s)) fmt

type state = {
  image : Image.t;
  phys : int array;
  mutable virt : int array;  (** dense frame, swapped per call *)
  mutable cc : int;
  mutable cf : cfunc;  (** the current function *)
  mutable pos : int;
  cfuncs : cfunc array;
  mutable stack : frame list;
  input : string;
  mutable input_pos : int;
  output : Buffer.t;
  counts : Interp.counts;
  fetch : addr:int -> size:int -> unit;
  mutable fetch_on : bool;
  mutable steps_left : int;
  log : Telemetry.Log.t;
  log_on : bool;
  budget : Telemetry.Budget.t;
  budget_on : bool;
  mutable next_heartbeat : int;  (** next multiple of [progress_interval] *)
  mutable next_budget : int;  (** next multiple of the budget poll interval *)
}

and frame = {
  fr_cf : cfunc;
  fr_pos : int;
  fr_virt : int array;
}

(** A handler runs one superblock and returns the next position. *)
and handler = state -> int

and cfunc = {
  src : D.dfunc;
  chandlers : handler array;
      (** parallel to [src.dcode]: the superblock handler at an entry
          point, {!enter_late} elsewhere until control first enters there *)
  build : int -> handler;  (** compiles the superblock at a position *)
  slice_ends : int array;
      (** per position [l], the end of the superblock at [l]'s fetch
          slice [\[l, slice_ends.(l))]: through the terminator's delay
          slot, fetched whether it runs or is squashed *)
  memo : Icache.Bank.memo;  (** the slices' memo for a fed bank *)
}

(** A compiled program: the decode it was built from plus one [cfunc]
    per decoded function. *)
type program = { decoded : D.t; cfuncs : cfunc array }

(* --- effect compilation ---------------------------------------------

   The generic path is pure composition: every operand, address and
   location becomes a closure over [state], so at run time an
   instruction is a few indirect calls with no constructor matches
   left.  [effect] and [compile_fused_cmp_branch] first try the hot
   shapes, which skip the operand closures. *)

let rget (r : D.dreg) : state -> int =
  match r with
  | D.P i -> fun st -> st.phys.(i)
  | D.V i -> fun st -> st.virt.(i)
  | D.CC -> fun st -> st.cc

let raddr (a : D.daddr) : state -> int =
  match a with
  | D.DBased (r, 0) -> rget r
  | D.DBased (r, d) ->
    let fr = rget r in
    fun st -> fr st + d
  | D.DIndexed (b, i, s, d) ->
    let fb = rget b and fi = rget i in
    fun st -> fb st + (fi st * s) + d
  | D.DAbs a -> fun _ -> a
  | D.DAbsBad msg -> fun _ -> raise (Interp.Runtime_error msg)

let ropnd (o : D.dopnd) : state -> int =
  match o with
  | D.DReg r -> rget r
  | D.DImm n -> fun _ -> n
  | D.DMem (w, a) -> (
    let fa = raddr a in
    match w with
    | Rtl.Byte -> fun st -> Image.load_byte st.image (fa st)
    | Rtl.Word -> fun st -> Image.load_word st.image (fa st))

let wloc (l : D.dloc) : state -> int -> unit =
  match l with
  | D.DLreg (D.P i) -> fun st v -> st.phys.(i) <- v
  | D.DLreg (D.V i) -> fun st v -> st.virt.(i) <- v
  | D.DLreg D.CC -> fun st v -> st.cc <- v
  | D.DLmem (w, a) -> (
    let fa = raddr a in
    match w with
    | Rtl.Byte -> fun st v -> Image.store_byte st.image (fa st) v
    | Rtl.Word -> fun st v -> Image.store_word st.image (fa st) v)

let binop_fn (op : Rtl.binop) : int -> int -> int =
  match op with
  | Rtl.Add -> Arith.add
  | Rtl.Sub -> Arith.sub
  | Rtl.Mul -> Arith.mul
  | Rtl.Div ->
    fun a b -> (
      match Arith.div a b with
      | v -> v
      | exception Division_by_zero -> error "division by zero")
  | Rtl.Rem ->
    fun a b -> (
      match Arith.rem a b with
      | v -> v
      | exception Division_by_zero -> error "division by zero")
  | Rtl.And -> Arith.logand
  | Rtl.Or -> Arith.logor
  | Rtl.Xor -> Arith.logxor
  | Rtl.Shl -> Arith.shl
  | Rtl.Shr -> Arith.shr

let cond_fn (c : Rtl.cond) : int -> bool =
  match c with
  | Rtl.Eq -> fun cc -> cc = 0
  | Rtl.Ne -> fun cc -> cc <> 0
  | Rtl.Lt -> fun cc -> cc < 0
  | Rtl.Le -> fun cc -> cc <= 0
  | Rtl.Gt -> fun cc -> cc > 0
  | Rtl.Ge -> fun cc -> cc >= 0

(* The calling convention's registers (sp/fp/rv) are physical, but take
   the general [Reg.t] route so [Enter]/[Leave]/builtins make no
   assumption the reference loop doesn't. *)
let get_rtl st = function
  | Reg.Phys i -> st.phys.(i)
  | Reg.Virt i -> if i < Array.length st.virt then st.virt.(i) else 0
  | Reg.Cc -> st.cc

let set_rtl st r v =
  match r with
  | Reg.Phys i -> st.phys.(i) <- v
  | Reg.Virt i -> if i < Array.length st.virt then st.virt.(i) <- v
  | Reg.Cc -> st.cc <- v

(* The hot shapes, one closure each (DESIGN.md §9 has the executed mix
   behind the choice).  Operands are read from [st.phys] directly, and
   the value is computed by the same [Arith]/[Image] function the
   composition in [effect]'s last cases would reach, so the two share one
   semantics: results are normalised and faults carry the same message.
   [alu_rr]/[alu_ri] cover [d := a op b] and [d := a op n]; the ops
   outside the hot mix go through [binop_fn], as the composition does. *)
let alu_rr op d a b : state -> unit =
  match op with
  | Rtl.Add -> fun st -> st.phys.(d) <- Arith.add st.phys.(a) st.phys.(b)
  | Rtl.Sub -> fun st -> st.phys.(d) <- Arith.sub st.phys.(a) st.phys.(b)
  | Rtl.And -> fun st -> st.phys.(d) <- Arith.logand st.phys.(a) st.phys.(b)
  | Rtl.Or -> fun st -> st.phys.(d) <- Arith.logor st.phys.(a) st.phys.(b)
  | Rtl.Shl -> fun st -> st.phys.(d) <- Arith.shl st.phys.(a) st.phys.(b)
  | Rtl.Mul | Rtl.Div | Rtl.Rem | Rtl.Xor | Rtl.Shr ->
    let f = binop_fn op in
    fun st -> st.phys.(d) <- f st.phys.(a) st.phys.(b)

let alu_ri op d a n : state -> unit =
  match op with
  | Rtl.Add -> fun st -> st.phys.(d) <- Arith.add st.phys.(a) n
  | Rtl.Sub -> fun st -> st.phys.(d) <- Arith.sub st.phys.(a) n
  | Rtl.And -> fun st -> st.phys.(d) <- Arith.logand st.phys.(a) n
  | Rtl.Or -> fun st -> st.phys.(d) <- Arith.logor st.phys.(a) n
  | Rtl.Shl -> fun st -> st.phys.(d) <- Arith.shl st.phys.(a) n
  | Rtl.Mul | Rtl.Div | Rtl.Rem | Rtl.Xor | Rtl.Shr ->
    let f = binop_fn op in
    fun st -> st.phys.(d) <- f st.phys.(a) n

let effect (i : D.dinstr) : state -> unit =
  match i with
  | D.DMove (D.DLreg (D.P d), D.DReg (D.P s)) ->
    fun st -> st.phys.(d) <- st.phys.(s)
  | D.DMove (D.DLreg (D.P d), D.DImm n) -> fun st -> st.phys.(d) <- n
  | D.DMove (D.DLreg (D.P d), D.DMem (Rtl.Word, D.DBased (D.P b, off))) ->
    fun st -> st.phys.(d) <- Image.load_word st.image (st.phys.(b) + off)
  | D.DMove (D.DLreg (D.P d), D.DMem (Rtl.Byte, D.DBased (D.P b, off))) ->
    fun st -> st.phys.(d) <- Image.load_byte st.image (st.phys.(b) + off)
  | D.DMove (D.DLmem (Rtl.Word, D.DBased (D.P b, off)), D.DReg (D.P s)) ->
    fun st -> Image.store_word st.image (st.phys.(b) + off) st.phys.(s)
  | D.DBinop (op, D.DLreg (D.P d), D.DReg (D.P a), D.DReg (D.P b)) ->
    alu_rr op d a b
  | D.DBinop (op, D.DLreg (D.P d), D.DReg (D.P a), D.DImm n) -> alu_ri op d a n
  | D.DMove (l, s) ->
    let fl = wloc l and fs = ropnd s in
    fun st -> fl st (fs st)
  | D.DLea (r, a) -> (
    let fa = raddr a in
    match r with
    | D.P i -> fun st -> st.phys.(i) <- fa st
    | D.V i -> fun st -> st.virt.(i) <- fa st
    | D.CC -> fun st -> st.cc <- fa st)
  | D.DBinop (op, l, a, b) ->
    let f = binop_fn op and fl = wloc l and fa = ropnd a and fb = ropnd b in
    fun st -> fl st (f (fa st) (fb st))
  | D.DUnop (op, l, a) ->
    let f = (match op with Rtl.Neg -> Arith.neg | Rtl.Not -> Arith.lognot)
    and fl = wloc l
    and fa = ropnd a in
    fun st -> fl st (f (fa st))
  | D.DCmp (a, b) ->
    let fa = ropnd a and fb = ropnd b in
    fun st -> st.cc <- Int.compare (fa st) (fb st)
  | D.DEnter n ->
    fun st ->
      let sp = get_rtl st Conv.sp in
      Image.store_word st.image (sp - 4) (get_rtl st Conv.fp);
      set_rtl st Conv.fp sp;
      set_rtl st Conv.sp (sp - n)
  | D.DLeave ->
    fun st ->
      let fp = get_rtl st Conv.fp in
      set_rtl st Conv.sp fp;
      set_rtl st Conv.fp (Image.load_word st.image (fp - 4))
  | D.DNop -> fun _ -> ()
  | D.DBranch _ | D.DJump _ | D.DIjump _ | D.DCallF _ | D.DCallB _
  | D.DCallU _ | D.DRet ->
    (* Transfers are compiled as superblock terminators, never as
       straight-line effects. *)
    assert false

let do_builtin st (b : D.builtin) =
  let arg i =
    st.phys.(match Conv.arg_reg i with Reg.Phys k -> k | _ -> 0)
  in
  match b with
  | D.Getchar ->
    let v =
      if st.input_pos < String.length st.input then begin
        let c = Char.code st.input.[st.input_pos] in
        st.input_pos <- st.input_pos + 1;
        c
      end
      else -1
    in
    set_rtl st Conv.rv v
  | D.Putchar ->
    let a0 = arg 0 in
    Buffer.add_char st.output (Char.chr (a0 land 0xff));
    set_rtl st Conv.rv a0
  | D.Exit -> raise (Exit_program (arg 0))

(* --- per-instruction accounting -------------------------------------

   [tick_at] is [Interp]'s [dcount] with the instruction's metadata
   (memory bits, code address, size) baked in at compile time and the
   heartbeat modulus replaced by the next-multiple thresholds — the
   same events with the same values, minus a division per step.  The
   class-counter bump is the caller's, before the tick, like [dcount]'s
   bump order; [Out_of_steps] raises after the fetch and before the
   instruction's effect, exactly where [dcount] raises it. *)

let tick_at (f : D.dfunc) pos : state -> unit =
  let rw = f.D.rw.(pos) in
  let reads = rw land 1 <> 0 and writes = rw land 2 <> 0 in
  let addr = f.D.daddrs.(pos) and size = f.D.dsizes.(pos) in
  fun st ->
    let c = st.counts in
    let t = c.Interp.total + 1 in
    c.Interp.total <- t;
    if reads then c.Interp.loads <- c.Interp.loads + 1;
    if writes then c.Interp.stores <- c.Interp.stores + 1;
    if st.fetch_on then st.fetch ~addr ~size;
    if st.log_on && t >= st.next_heartbeat then begin
      Telemetry.Log.emit st.log (fun () ->
          Telemetry.Log.Sim_progress { instrs = t });
      st.next_heartbeat <- t + Interp.progress_interval
    end;
    if st.budget_on && t >= st.next_budget then begin
      Telemetry.Budget.check st.budget;
      st.next_budget <- (t lor Interp.budget_interval_mask) + 1
    end;
    st.steps_left <- st.steps_left - 1;
    if st.steps_left <= 0 then raise Out_of_steps

(* Generic tick for the slow (fuel-exhaustion) tail, where the position
   is not a compile-time constant. *)
let tick st pos =
  let c = st.counts in
  let t = c.Interp.total + 1 in
  c.Interp.total <- t;
  let f = st.cf.src in
  let rw = f.D.rw.(pos) in
  if rw land 1 <> 0 then c.Interp.loads <- c.Interp.loads + 1;
  if rw land 2 <> 0 then c.Interp.stores <- c.Interp.stores + 1;
  if st.fetch_on then
    st.fetch ~addr:f.D.daddrs.(pos) ~size:f.D.dsizes.(pos);
  if st.log_on && t >= st.next_heartbeat then begin
    Telemetry.Log.emit st.log (fun () ->
        Telemetry.Log.Sim_progress { instrs = t });
    st.next_heartbeat <- t + Interp.progress_interval
  end;
  if st.budget_on && t >= st.next_budget then begin
    Telemetry.Budget.check st.budget;
    st.next_budget <- (t lor Interp.budget_interval_mask) + 1
  end;
  st.steps_left <- st.steps_left - 1;
  if st.steps_left <= 0 then raise Out_of_steps

(* --- superblock compilation ----------------------------------------- *)

(* Delay-slot execution compiled for the transfer at [m]: [run]
   executes the slot (counted), [squash] only fetches it (an annulled
   slot on an untaken branch is fetched by the hardware but not
   executed).  The reference's lazy faults — slot off the end, transfer
   in a slot — survive as raising closures reached only if a transfer
   actually fires. *)
let compile_slot (f : D.dfunc) delay_slots m : (state -> unit) * (state -> unit)
    =
  if not delay_slots then ((fun _ -> ()), fun _ -> ())
  else if m + 1 >= Array.length f.D.dcode then
    let off _ = error "delay slot off the end" in
    (off, off)
  else begin
    let slot = f.D.dcode.(m + 1) in
    if D.is_transfer slot then
      let bad _ = error "transfer in a delay slot" in
      (bad, bad)
    else begin
      let eff = effect slot in
      let slot_tick = tick_at f (m + 1) in
      let is_nop = slot = D.DNop in
      let addr = f.D.daddrs.(m + 1) and size = f.D.dsizes.(m + 1) in
      let run st =
        if is_nop then st.counts.Interp.nops <- st.counts.Interp.nops + 1;
        slot_tick st;
        eff st
      in
      let squash st = if st.fetch_on then st.fetch ~addr ~size in
      (run, squash)
    end
  end

(* Resolve a decoded transfer target at compile time: an index becomes
   a constant, a negative fault id a raising closure. *)
let target_fn (f : D.dfunc) tgt : state -> int =
  if tgt >= 0 then fun _ -> tgt
  else
    let msg = f.D.faults.((-tgt) - 1) in
    fun _ -> raise (Interp.Runtime_error msg)

let slot_annulled (f : D.dfunc) delay_slots m =
  delay_slots
  && m + 1 < Array.length f.D.dannulled
  && f.D.dannulled.(m + 1)

(* The terminating transfer of a superblock at position [m], as a
   closure returning the next position.  Statement order mirrors the
   reference loop exactly: class bump and tick, operand reads, delay
   slot, then the control decision. *)
let compile_term (f : D.dfunc) delay_slots after m : state -> int =
  let t_tick = tick_at f m in
  let slot_run, slot_squash = compile_slot f delay_slots m in
  match f.D.dcode.(m) with
  | D.DBranch (cond, tgt) ->
    let eval = cond_fn cond in
    let goto = target_fn f tgt in
    let annulled = slot_annulled f delay_slots m in
    let next = m + after in
    fun st ->
      st.counts.Interp.cond_branches <- st.counts.Interp.cond_branches + 1;
      t_tick st;
      let taken = eval st.cc in
      if taken then begin
        slot_run st;
        goto st
      end
      else begin
        if annulled then slot_squash st else slot_run st;
        next
      end
  | D.DJump tgt ->
    let goto = target_fn f tgt in
    fun st ->
      st.counts.Interp.jumps <- st.counts.Interp.jumps + 1;
      t_tick st;
      slot_run st;
      goto st
  | D.DIjump (r, table) ->
    let fr = rget r in
    let tlen = Array.length table in
    let gotos = Array.map (target_fn f) table in
    fun st ->
      st.counts.Interp.ijumps <- st.counts.Interp.ijumps + 1;
      t_tick st;
      let idx = fr st in
      slot_run st;
      if idx < 0 || idx >= tlen then
        error "jump-table index %d out of bounds" idx;
      gotos.(idx) st
  | D.DCallF callee ->
    let ret = m + after in
    fun st ->
      st.counts.Interp.calls <- st.counts.Interp.calls + 1;
      t_tick st;
      slot_run st;
      let cf = st.cfuncs.(callee) in
      st.stack <-
        {
          fr_cf = st.cf;
          fr_pos = ret;
          fr_virt = st.virt;
        }
        :: st.stack;
      st.virt <- Array.make (Int.max 1 cf.src.D.nvirt) 0;
      st.cf <- cf;
      0
  | D.DCallB b ->
    let next = m + after in
    fun st ->
      st.counts.Interp.calls <- st.counts.Interp.calls + 1;
      t_tick st;
      slot_run st;
      do_builtin st b;
      next
  | D.DCallU msg ->
    fun st ->
      st.counts.Interp.calls <- st.counts.Interp.calls + 1;
      t_tick st;
      slot_run st;
      raise (Interp.Runtime_error msg)
  | D.DRet -> (
    fun st ->
      st.counts.Interp.rets <- st.counts.Interp.rets + 1;
      t_tick st;
      slot_run st;
      match st.stack with
      | fr :: rest ->
        st.stack <- rest;
        st.cf <- fr.fr_cf;
        st.virt <- fr.fr_virt;
        fr.fr_pos
      | [] -> raise (Exit_program (get_rtl st Conv.rv)))
  | D.DMove _ | D.DLea _ | D.DBinop _ | D.DUnop _ | D.DCmp _ | D.DEnter _
  | D.DLeave | D.DNop ->
    assert false

(* The branch half of a fused compare and branch, given the compare's
   result: set the condition code (still architecturally visible
   afterwards), count and tick the branch, run or squash its slot, and
   return the next position. *)
let[@inline] fused_decide st cc br_tick eval goto slot_run slot_squash annulled
    next =
  st.cc <- cc;
  st.counts.Interp.cond_branches <- st.counts.Interp.cond_branches + 1;
  br_tick st;
  let taken = eval cc in
  if taken then begin
    slot_run st;
    goto st
  end
  else begin
    if annulled then slot_squash st else slot_run st;
    next
  end

(* A compare directly feeding the superblock's conditional branch fuses
   with it: compute and decide in one closure.  The compare's hot
   shapes, [cmp r, n] and [cmp r1, r2] on physical registers, read
   [st.phys] directly; [fused_decide] is inlined into each variant, so
   every one stays a single closure. *)
let compile_fused_cmp_branch (f : D.dfunc) delay_slots after ~cmp_pos ~br_pos
    (a : D.dopnd) (b : D.dopnd) cond tgt : state -> int =
  let cmp_tick = tick_at f cmp_pos in
  let br_tick = tick_at f br_pos in
  let eval = cond_fn cond in
  let goto = target_fn f tgt in
  let slot_run, slot_squash = compile_slot f delay_slots br_pos in
  let annulled = slot_annulled f delay_slots br_pos in
  let next = br_pos + after in
  match (a, b) with
  | D.DReg (D.P i), D.DImm n ->
    fun st ->
      cmp_tick st;
      fused_decide st
        (Int.compare st.phys.(i) n)
        br_tick eval goto slot_run slot_squash annulled next
  | D.DReg (D.P i), D.DReg (D.P j) ->
    fun st ->
      cmp_tick st;
      fused_decide st
        (Int.compare st.phys.(i) st.phys.(j))
        br_tick eval goto slot_run slot_squash annulled next
  | _ ->
    let fa = ropnd a and fb = ropnd b in
    fun st ->
      cmp_tick st;
      fused_decide st
        (Int.compare (fa st) (fb st))
        br_tick eval goto slot_run slot_squash annulled next

(* The closure ending a superblock whose transfer is at [m]: the transfer
   itself, or, when [fused] holds, the compare at [m - 1] fused with the
   conditional branch at [m]. *)
let compile_tail (f : D.dfunc) delay_slots after ~fused m =
  if not fused then compile_term f delay_slots after m
  else
    match (f.D.dcode.(m - 1), f.D.dcode.(m)) with
    | D.DCmp (a, b), D.DBranch (cond, tgt) ->
      compile_fused_cmp_branch f delay_slots after ~cmp_pos:(m - 1) ~br_pos:m a
        b cond tgt
    | _ -> invalid_arg "Engine.compile_tail: no compare and branch to fuse"

(* The superblock starting at [l]: its straight-line prefix (simple
   instructions up to the next transfer) runs off one bulk accounting
   header, then the terminator decides where to go.  [effs] is shared
   across all the function's superblocks, so overlapping blocks do not
   duplicate compiled effects; [tail ~fused m] supplies the terminator,
   which superblocks ending at the same transfer may share too. *)
let compile_block (f : D.dfunc) (effs : (state -> unit) array) tail l : handler
    =
  let code = f.D.dcode in
  let n = Array.length code in
  let m = ref l in
  while !m < n && not (D.is_transfer code.(!m)) do incr m done;
  (* Fuse a trailing compare into a conditional-branch terminator. *)
  let fused =
    !m < n && !m > l
    &&
    match (code.(!m - 1), code.(!m)) with
    | D.DCmp _, D.DBranch _ -> true
    | _ -> false
  in
  let prefix_end = if fused then !m - 1 else !m in
  let term = if !m < n then Some (tail ~fused !m) else None in
  let p = prefix_end - l in
  (* Class totals of the prefix: simple instructions only touch the
     total/nop/load/store counters. *)
  let nops_k = ref 0 and loads_k = ref 0 and stores_k = ref 0 in
  for j = l to prefix_end - 1 do
    if code.(j) = D.DNop then incr nops_k;
    let rw = f.D.rw.(j) in
    if rw land 1 <> 0 then incr loads_k;
    if rw land 2 <> 0 then incr stores_k
  done;
  let nops_k = !nops_k and loads_k = !loads_k and stores_k = !stores_k in
  let after_prefix =
    match term with
    | Some t -> t
    | None -> fun _ -> n  (* run off the end; the dispatch loop faults *)
  in
  (* The handler reads the function's arrays through [st.cf] (it runs
     only while [st.cf.src == f]) rather than capturing them: each
     captured value is a word per superblock of every cached program. *)
  if p = 0 then after_prefix
  else
    fun st ->
      if st.steps_left <= p then begin
        (* Not enough fuel for the whole prefix: per-instruction tail,
           so [Out_of_steps] fires at the exact instruction with exact
           partial counts, fetches and output. *)
        let code = st.cf.src.D.dcode in
        for j = l to l + p - 1 do
          if code.(j) = D.DNop then
            st.counts.Interp.nops <- st.counts.Interp.nops + 1;
          tick st j;
          effs.(j) st
        done;
        after_prefix st
      end
      else begin
        let c = st.counts in
        let t1 = c.Interp.total + p in
        c.Interp.total <- t1;
        if nops_k > 0 then c.Interp.nops <- c.Interp.nops + nops_k;
        if loads_k > 0 then c.Interp.loads <- c.Interp.loads + loads_k;
        if stores_k > 0 then c.Interp.stores <- c.Interp.stores + stores_k;
        if st.log_on && t1 >= st.next_heartbeat then begin
          let at = st.next_heartbeat in
          Telemetry.Log.emit st.log (fun () ->
              Telemetry.Log.Sim_progress { instrs = at });
          st.next_heartbeat <- at + Interp.progress_interval
        end;
        if st.budget_on && t1 >= st.next_budget then begin
          Telemetry.Budget.check st.budget;
          st.next_budget <- (t1 lor Interp.budget_interval_mask) + 1
        end;
        st.steps_left <- st.steps_left - p;
        if st.fetch_on then begin
          let addrs = st.cf.src.D.daddrs and sizes = st.cf.src.D.dsizes in
          for j = l to l + p - 1 do
            st.fetch ~addr:(Array.unsafe_get addrs j)
              ~size:(Array.unsafe_get sizes j);
            (Array.unsafe_get effs j) st
          done
        end
        else
          for j = l to l + p - 1 do
            (Array.unsafe_get effs j) st
          done;
        after_prefix st
      end

(* The positions control can enter a function at: the entry, transfer
   targets and the fall-throughs past a transfer (an untaken branch, a
   call's return).  Fault ids (negative targets) and positions off the
   end have no handler to enter. *)
let entry_points (f : D.dfunc) after =
  let n = Array.length f.D.dcode in
  let entry = Array.make n false in
  let mark p = if p >= 0 && p < n then entry.(p) <- true in
  mark 0;
  Array.iteri
    (fun m -> function
      | D.DBranch (_, tgt) ->
        mark tgt;
        mark (m + after)
      | D.DJump tgt -> mark tgt
      | D.DIjump (_, table) -> Array.iter mark table
      | D.DCallF _ | D.DCallB _ -> mark (m + after)
      | D.DCallU _ | D.DRet | D.DMove _ | D.DLea _ | D.DBinop _ | D.DUnop _
      | D.DCmp _ | D.DEnter _ | D.DLeave | D.DNop ->
        ())
    f.D.dcode;
  entry

(* The one handler of every position that is not an entry point: control
   that gets there anyway (the dispatch loop calls a handler with
   [st.pos] at its position) compiles the position's superblock and
   installs it. *)
let enter_late st =
  let cf = st.cf and l = st.pos in
  let h = cf.build l in
  cf.chandlers.(l) <- h;
  h st

(* Handlers are compiled for entry points only: a handler per position
   would cost a fused closure and a terminator per instruction, where
   control enters once per superblock.  Entry points inside one
   superblock (a branch target in the middle of a straight-line run)
   share its terminator: positions are built in increasing order, so the
   entry points ending at one transfer come one after another, and the
   last terminator built is the one they reuse. *)
let compile_func (f : D.dfunc) delay_slots after : cfunc =
  let n = Array.length f.D.dcode in
  let effs =
    Array.map
      (fun i -> if D.is_transfer i then (fun _ -> ()) else effect i)
      f.D.dcode
  in
  let last = ref None in
  let tail ~fused m =
    match !last with
    | Some (m', fused', t) when m' = m && fused' = fused -> t
    | Some _ | None ->
      let t = compile_tail f delay_slots after ~fused m in
      last := Some (m, fused, t);
      t
  in
  let build l = compile_block f effs tail l in
  let entry = entry_points f after in
  let handlers =
    Array.init n (fun l -> if entry.(l) then build l else enter_late)
  in
  (* Each position's fetch slice ends after the next transfer's delay
     slot (clipped to the code: a slot off the end faults). *)
  let slice_ends = Array.make n n in
  let next = ref n in
  for l = n - 1 downto 0 do
    if D.is_transfer f.D.dcode.(l) then next := l;
    if !next < n then slice_ends.(l) <- Int.min n (!next + after)
  done;
  {
    src = f;
    chandlers = handlers;
    build;
    slice_ends;
    memo = Icache.Bank.memo n;
  }

let compile (decoded : D.t) : program =
  let after = if decoded.D.delay_slots then 2 else 1 in
  {
    decoded;
    cfuncs =
      Array.map
        (fun f -> compile_func f decoded.D.delay_slots after)
        decoded.D.dfuncs;
  }

(* Compiled programs are cached like decodes: one process-wide LRU keyed by
   the decode's physical identity (itself interned by
   [Interp.decode_cached], so equal [asm]/[prog] pairs share one
   decode and hence one compile). *)
let compile_cache_capacity = 8

type ccache = {
  mutable centries : (D.t * program) list;
  mutable chits : int;
  mutable cmisses : int;
}

let compile_cache = { centries = []; chits = 0; cmisses = 0 }

let compile_cached (decoded : D.t) =
  let rec find acc = function
    | [] -> None
    | ((d, _) as e) :: rest ->
      if d == decoded then Some (e, List.rev_append acc rest)
      else find (e :: acc) rest
  in
  match find [] compile_cache.centries with
  | Some (((_, p) as e), rest) ->
    compile_cache.chits <- compile_cache.chits + 1;
    compile_cache.centries <- e :: rest;
    p
  | None ->
    compile_cache.cmisses <- compile_cache.cmisses + 1;
    let p = compile decoded in
    let kept =
      List.filteri (fun i _ -> i < compile_cache_capacity - 1) compile_cache.centries
    in
    compile_cache.centries <- (decoded, p) :: kept;
    p

let compile_cache_counters () = (compile_cache.chits, compile_cache.cmisses)

(* --- the run loop ---------------------------------------------------- *)

let effective_steps budget max_steps =
  match budget with
  | Some b -> (
    match Telemetry.Budget.fuel b with
    | Some f -> min f max_steps
    | None -> max_steps)
  | None -> max_steps

let no_fetch ~addr:_ ~size:_ = ()

(* Per-fetch feeding of [bank], for the tail of a run whose fuel no
   longer covers a whole superblock. *)
let fetch_one bank =
  let addrs = [| 0 |] and sizes = [| 0 |] and memo = Icache.Bank.memo 0 in
  fun ~addr ~size ->
    addrs.(0) <- addr;
    sizes.(0) <- size;
    Icache.Bank.access_block bank memo addrs sizes 0 1

let run ?(max_steps = 400_000_000) ?(input = "") ?on_fetch ?bank
    ?(log = Telemetry.Log.null) ?budget (asm : Asm.t) (prog : Flow.Prog.t) =
  let max_steps = effective_steps budget max_steps in
  let fetch =
    match (on_fetch, bank) with
    | Some _, Some _ ->
      invalid_arg "Sim.Engine.run: ~on_fetch and ~bank are exclusive"
    | Some f, None -> f
    | None, Some b -> fetch_one b
    | None, None -> no_fetch
  in
  let image = Image.build_scratch prog in
  let decoded =
    Interp.decode_cached
      ~symbol:(fun sym ->
        match Image.symbol image sym with
        | a -> Some a
        | exception Not_found -> None)
      asm prog
  in
  let compiled = compile_cached decoded in
  let main_i =
    match Hashtbl.find_opt decoded.D.findex "main" with
    | Some i -> i
    | None -> error "no main function"
  in
  let main = compiled.cfuncs.(main_i) in
  let counts =
    {
      Interp.total = 0;
      cond_branches = 0;
      jumps = 0;
      ijumps = 0;
      calls = 0;
      rets = 0;
      nops = 0;
      loads = 0;
      stores = 0;
    }
  in
  let st =
    {
      image;
      phys = Array.make Conv.num_regs 0;
      virt = Array.make (max 1 main.src.D.nvirt) 0;
      cc = 0;
      cf = main;
      pos = 0;
      cfuncs = compiled.cfuncs;
      stack = [];
      input;
      input_pos = 0;
      output = Buffer.create 1024;
      counts;
      fetch;
      fetch_on = Option.is_some on_fetch;
      steps_left = max_steps;
      log;
      log_on = Telemetry.Log.enabled log;
      budget = Option.value budget ~default:Telemetry.Budget.unlimited;
      budget_on = Option.is_some budget;
      next_heartbeat = Interp.progress_interval;
      next_budget = Interp.budget_interval_mask + 1;
    }
  in
  set_rtl st Conv.sp (Image.size image);
  set_rtl st Conv.fp (Image.size image);
  let timed_out = ref false in
  let exit_code =
    try
      let rec loop st =
        let cf = st.cf and pos = st.pos in
        if pos >= Array.length cf.chandlers then
          error "fell off the end of %s" cf.src.D.dname;
        st.pos <- (Array.unsafe_get cf.chandlers pos) st;
        loop st
      in
      (* With a bank: one slice per superblock until the steps left no
         longer cover the next slice; from there on the run feeds it
         per fetch, so a timeout stops at the exact fetch. *)
      let rec loop_bank bank st =
        let cf = st.cf and pos = st.pos in
        if pos >= Array.length cf.chandlers then
          error "fell off the end of %s" cf.src.D.dname;
        let hi = Array.unsafe_get cf.slice_ends pos in
        if st.steps_left > hi - pos then begin
          Icache.Bank.access_block bank cf.memo cf.src.D.daddrs
            cf.src.D.dsizes pos hi;
          st.pos <- (Array.unsafe_get cf.chandlers pos) st;
          loop_bank bank st
        end
        else begin
          st.fetch_on <- true;
          loop st
        end
      in
      match bank with Some b -> loop_bank b st | None -> loop st
    with
    | Exit_program code -> code
    | Out_of_steps ->
      timed_out := true;
      124
    | Image.Fault msg -> raise (Interp.Runtime_error msg)
  in
  {
    Interp.output = Buffer.contents st.output;
    exit_code;
    counts;
    timed_out = !timed_out;
  }

(* --- provenance ------------------------------------------------------ *)

type kind = Threaded

let kind_name Threaded = "threaded"
