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
   hottest loop shape (test + branch) is one closure call.

   The bit-stability contract is the reference loop's
   ([Interp.run_reference]), and the equivalence tests hold the engine
   to it over the full benchmark matrix:

   - [on_fetch] fires once per executed instruction, in execution
     order, interleaved with the instruction effects exactly as the
     reference interleaves them — a faulting run's fetch stream is the
     precise prefix, not a superblock's worth of prefetch;
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
  mutable func : D.dfunc;
  mutable pos : int;
  mutable handlers : handler array;  (** current function's, parallel to [func.dcode] *)
  cfuncs : cfunc array;
  mutable stack : frame list;
  input : string;
  mutable input_pos : int;
  output : Buffer.t;
  counts : Interp.counts;
  fetch : addr:int -> size:int -> unit;
  fetch_on : bool;
  mutable steps_left : int;
  log : Telemetry.Log.t;
  log_on : bool;
  budget : Telemetry.Budget.t;
  budget_on : bool;
  mutable next_heartbeat : int;  (** next multiple of [progress_interval] *)
  mutable next_budget : int;  (** next multiple of the budget poll interval *)
}

and frame = {
  fr_func : D.dfunc;
  fr_handlers : handler array;
  fr_pos : int;
  fr_virt : int array;
}

(** A handler runs one superblock and returns the next position. *)
and handler = state -> int

and cfunc = { src : D.dfunc; chandlers : handler array }

(** A compiled program: the decode it was built from plus one [cfunc]
    per decoded function. *)
type program = { decoded : D.t; cfuncs : cfunc array }

(* --- effect compilation ---------------------------------------------

   Pure composition: every operand, address and location becomes a
   closure over [state], so at run time an instruction is two or three
   indirect calls with no constructor matches left. *)

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

let effect (i : D.dinstr) : state -> unit =
  match i with
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
  let rw = st.func.D.rw.(pos) in
  if rw land 1 <> 0 then c.Interp.loads <- c.Interp.loads + 1;
  if rw land 2 <> 0 then c.Interp.stores <- c.Interp.stores + 1;
  if st.fetch_on then
    st.fetch ~addr:st.func.D.daddrs.(pos) ~size:st.func.D.dsizes.(pos);
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
          fr_func = st.func;
          fr_handlers = st.handlers;
          fr_pos = ret;
          fr_virt = st.virt;
        }
        :: st.stack;
      st.virt <- Array.make (Int.max 1 cf.src.D.nvirt) 0;
      st.func <- cf.src;
      st.handlers <- cf.chandlers;
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
        st.func <- fr.fr_func;
        st.handlers <- fr.fr_handlers;
        st.virt <- fr.fr_virt;
        fr.fr_pos
      | [] -> raise (Exit_program (get_rtl st Conv.rv)))
  | D.DMove _ | D.DLea _ | D.DBinop _ | D.DUnop _ | D.DCmp _ | D.DEnter _
  | D.DLeave | D.DNop ->
    assert false

(* A compare directly feeding the superblock's conditional branch fuses
   with it: compute, set the condition code (still architecturally
   visible afterwards), and decide in one closure. *)
let compile_fused_cmp_branch (f : D.dfunc) delay_slots after ~cmp_pos ~br_pos
    (a : D.dopnd) (b : D.dopnd) cond tgt : state -> int =
  let cmp_tick = tick_at f cmp_pos in
  let br_tick = tick_at f br_pos in
  let fa = ropnd a and fb = ropnd b in
  let eval = cond_fn cond in
  let goto = target_fn f tgt in
  let slot_run, slot_squash = compile_slot f delay_slots br_pos in
  let annulled = slot_annulled f delay_slots br_pos in
  let next = br_pos + after in
  fun st ->
    cmp_tick st;
    let cc = Int.compare (fa st) (fb st) in
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

(* The superblock starting at [l]: its straight-line prefix (simple
   instructions up to the next transfer) runs off one bulk accounting
   header, then the terminator decides where to go.  Every position
   gets a handler — control only ever enters at transfer targets,
   post-transfer fall-throughs and the entry, but a handler per
   position keeps the dispatch a plain array index.  [effs] is shared
   across all the function's superblocks, so overlapping blocks do not
   duplicate compiled effects. *)
let compile_block (f : D.dfunc) delay_slots after (effs : (state -> unit) array)
    l : handler =
  let code = f.D.dcode in
  let n = Array.length code in
  let m = ref l in
  while !m < n && not (D.is_transfer code.(!m)) do incr m done;
  (* Fuse a trailing compare into a conditional-branch terminator. *)
  let fused, prefix_end =
    if !m < n && !m > l then
      match (code.(!m - 1), code.(!m)) with
      | D.DCmp (a, b), D.DBranch (cond, tgt) ->
        ( Some
            (compile_fused_cmp_branch f delay_slots after ~cmp_pos:(!m - 1)
               ~br_pos:!m a b cond tgt),
          !m - 1 )
      | _ -> (None, !m)
    else (None, !m)
  in
  let term =
    match fused with
    | Some t -> Some t
    | None -> if !m < n then Some (compile_term f delay_slots after !m) else None
  in
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
  let addrs = f.D.daddrs and sizes = f.D.dsizes in
  let after_prefix =
    match term with
    | Some t -> t
    | None -> fun _ -> n  (* run off the end; the dispatch loop faults *)
  in
  if p = 0 then after_prefix
  else
    fun st ->
      if st.steps_left <= p then begin
        (* Not enough fuel for the whole prefix: per-instruction tail,
           so [Out_of_steps] fires at the exact instruction with exact
           partial counts, fetches and output. *)
        for j = l to prefix_end - 1 do
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
        if st.fetch_on then
          for j = l to prefix_end - 1 do
            st.fetch ~addr:(Array.unsafe_get addrs j)
              ~size:(Array.unsafe_get sizes j);
            (Array.unsafe_get effs j) st
          done
        else
          for j = l to prefix_end - 1 do
            (Array.unsafe_get effs j) st
          done;
        after_prefix st
      end

let compile_func (f : D.dfunc) delay_slots after : cfunc =
  let n = Array.length f.D.dcode in
  let effs =
    Array.map
      (fun i -> if D.is_transfer i then (fun _ -> ()) else effect i)
      f.D.dcode
  in
  let handlers =
    Array.init n (fun l -> compile_block f delay_slots after effs l)
  in
  { src = f; chandlers = handlers }

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

let publish_cache_metrics metrics =
  let hits, misses = compile_cache_counters () in
  Telemetry.Metrics.add metrics "sim.engine_cache.hits" hits;
  Telemetry.Metrics.add metrics "sim.engine_cache.misses" misses

(* --- the run loop ---------------------------------------------------- *)

let effective_steps budget max_steps =
  match budget with
  | Some b -> (
    match Telemetry.Budget.fuel b with
    | Some f -> min f max_steps
    | None -> max_steps)
  | None -> max_steps

let no_fetch ~addr:_ ~size:_ = ()

let run ?(max_steps = 400_000_000) ?(input = "") ?on_fetch
    ?(log = Telemetry.Log.null) ?budget (asm : Asm.t) (prog : Flow.Prog.t) =
  let max_steps = effective_steps budget max_steps in
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
      func = main.src;
      pos = 0;
      handlers = main.chandlers;
      cfuncs = compiled.cfuncs;
      stack = [];
      input;
      input_pos = 0;
      output = Buffer.create 1024;
      counts;
      fetch = (match on_fetch with Some f -> f | None -> no_fetch);
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
        let pos = st.pos in
        if pos >= Array.length st.handlers then
          error "fell off the end of %s" st.func.D.dname;
        st.pos <- (Array.unsafe_get st.handlers pos) st;
        loop st
      in
      loop st
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

(* --- engine selection ------------------------------------------------ *)

type kind = Threaded | Reference

let kind_name = function Threaded -> "threaded" | Reference -> "reference"

let kind_of_string = function
  | "threaded" -> Some Threaded
  | "reference" -> Some Reference
  | _ -> None

let all_kinds = [ Threaded; Reference ]

let select = function Threaded -> run | Reference -> Interp.run_reference
