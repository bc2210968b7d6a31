open Ir

type counts = {
  mutable total : int;
  mutable cond_branches : int;
  mutable jumps : int;
  mutable ijumps : int;
  mutable calls : int;
  mutable rets : int;
  mutable nops : int;
  mutable loads : int;
  mutable stores : int;
}

let uncond_jumps c = c.jumps + c.ijumps

let transfers c = c.cond_branches + c.jumps + c.ijumps + c.calls + c.rets

type result = {
  output : string;
  exit_code : int;
  counts : counts;
  timed_out : bool;
}

exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

exception Exit_program of int

(* Step-budget exhaustion is a distinct outcome, not a runtime fault: the
   fuzzer uses it to tell a diverging (miscompiled-into-a-loop) program
   from a crashing one. *)
exception Out_of_steps

type state = {
  asm : Asm.t;
  image : Image.t;
  phys : int array;
  mutable vregs : (int, int) Hashtbl.t;
  mutable cc : int;  (** sign of the last comparison *)
  mutable func : Asm.afunc;
  mutable pos : int;
  mutable stack : (Asm.afunc * int * (int, int) Hashtbl.t) list;
  input : string;
  mutable input_pos : int;
  output : Buffer.t;
  counts : counts;
  on_fetch : addr:int -> size:int -> unit;
  mutable steps_left : int;
  log : Telemetry.Log.t;
  log_on : bool;  (** [Log.enabled log], hoisted out of the fetch loop *)
  budget : Telemetry.Budget.t;
  budget_on : bool;  (** a caller-supplied budget is attached *)
}

(* One [Sim_progress] heartbeat per this many executed instructions. *)
let progress_interval = 5_000_000

(* How often (in executed instructions) an attached budget's deadline is
   polled.  Cooperative cancellation latency is this many steps; the poll
   is one land (plus a clock read when a deadline is set). *)
let budget_interval_mask = 2047

(* Effective step budget: the explicit [max_steps] capped by the budget's
   fuel axis when one is attached. *)
let effective_steps budget max_steps =
  match budget with
  | Some b -> (
    match Telemetry.Budget.fuel b with
    | Some f -> min f max_steps
    | None -> max_steps)
  | None -> max_steps

let get_reg st = function
  | Reg.Phys i -> st.phys.(i)
  | Reg.Virt i -> ( match Hashtbl.find_opt st.vregs i with Some v -> v | None -> 0)
  | Reg.Cc -> st.cc

let set_reg st r v =
  match r with
  | Reg.Phys i -> st.phys.(i) <- v
  | Reg.Virt i -> Hashtbl.replace st.vregs i v
  | Reg.Cc -> st.cc <- v

let addr_value st = function
  | Rtl.Based (r, d) -> get_reg st r + d
  | Rtl.Indexed (b, i, s, d) -> get_reg st b + (get_reg st i * s) + d
  | Rtl.Abs (sym, off) -> (
    match Image.symbol st.image sym with
    | a -> a + off
    | exception Not_found -> error "unknown symbol %s" sym)

let load st w a =
  let addr = addr_value st a in
  match w with
  | Rtl.Byte -> Image.load_byte st.image addr
  | Rtl.Word -> Image.load_word st.image addr

let operand_value st = function
  | Rtl.Reg r -> get_reg st r
  | Rtl.Imm n -> n
  | Rtl.Mem (w, a) -> load st w a

let store_loc st loc v =
  match loc with
  | Rtl.Lreg r -> set_reg st r v
  | Rtl.Lmem (w, a) -> (
    let addr = addr_value st a in
    match w with
    | Rtl.Byte -> Image.store_byte st.image addr v
    | Rtl.Word -> Image.store_word st.image addr v)

let eval_cc cond cc =
  match cond with
  | Rtl.Eq -> cc = 0
  | Rtl.Ne -> cc <> 0
  | Rtl.Lt -> cc < 0
  | Rtl.Le -> cc <= 0
  | Rtl.Gt -> cc > 0
  | Rtl.Ge -> cc >= 0

(* Account for one executed instruction. *)
let count st instr pos =
  let c = st.counts in
  c.total <- c.total + 1;
  (match instr with
  | Rtl.Branch _ -> c.cond_branches <- c.cond_branches + 1
  | Rtl.Jump _ -> c.jumps <- c.jumps + 1
  | Rtl.Ijump _ -> c.ijumps <- c.ijumps + 1
  | Rtl.Call _ -> c.calls <- c.calls + 1
  | Rtl.Ret -> c.rets <- c.rets + 1
  | Rtl.Nop -> c.nops <- c.nops + 1
  | Rtl.Move _ | Rtl.Lea _ | Rtl.Binop _ | Rtl.Unop _ | Rtl.Cmp _
  | Rtl.Enter _ | Rtl.Leave ->
    ());
  if Rtl.reads_mem instr then c.loads <- c.loads + 1;
  if Rtl.writes_mem instr then c.stores <- c.stores + 1;
  st.on_fetch ~addr:st.func.addrs.(pos) ~size:st.func.sizes.(pos);
  if st.log_on && c.total mod progress_interval = 0 then
    Telemetry.Log.emit st.log (fun () ->
        Telemetry.Log.Sim_progress { instrs = c.total });
  if st.budget_on && c.total land budget_interval_mask = 0 then
    Telemetry.Budget.check st.budget;
  st.steps_left <- st.steps_left - 1;
  if st.steps_left <= 0 then raise Out_of_steps

let builtin_call st name nargs =
  let arg i = st.phys.(match Conv.arg_reg i with Reg.Phys k -> k | _ -> 0) in
  ignore nargs;
  match name with
  | "getchar" ->
    let v =
      if st.input_pos < String.length st.input then begin
        let c = Char.code st.input.[st.input_pos] in
        st.input_pos <- st.input_pos + 1;
        c
      end
      else -1
    in
    set_reg st Conv.rv v;
    true
  | "putchar" ->
    Buffer.add_char st.output (Char.chr (arg 0 land 0xff));
    set_reg st Conv.rv (arg 0);
    true
  | "exit" -> raise (Exit_program (arg 0))
  | _ -> false

(* Execute a non-transfer instruction's effect. *)
let exec_simple st instr =
  match instr with
  | Rtl.Move (loc, src) -> store_loc st loc (operand_value st src)
  | Rtl.Lea (r, a) -> set_reg st r (addr_value st a)
  | Rtl.Binop (op, loc, a, b) ->
    let va = operand_value st a and vb = operand_value st b in
    let v =
      match Rtl.eval_binop op va vb with
      | v -> v
      | exception Division_by_zero -> error "division by zero"
    in
    store_loc st loc v
  | Rtl.Unop (op, loc, a) -> store_loc st loc (Rtl.eval_unop op (operand_value st a))
  | Rtl.Cmp (a, b) ->
    st.cc <- Int.compare (operand_value st a) (operand_value st b)
  | Rtl.Enter n ->
    let sp = get_reg st Conv.sp in
    Image.store_word st.image (sp - 4) (get_reg st Conv.fp);
    set_reg st Conv.fp sp;
    set_reg st Conv.sp (sp - n)
  | Rtl.Leave ->
    let fp = get_reg st Conv.fp in
    set_reg st Conv.sp fp;
    set_reg st Conv.fp (Image.load_word st.image (fp - 4))
  | Rtl.Nop -> ()
  | Rtl.Branch _ | Rtl.Jump _ | Rtl.Ijump _ | Rtl.Call _ | Rtl.Ret ->
    assert false

(* Execute the delay slot at [pos] (RISC only).  A squashed annulled slot
   is fetched by the hardware but not executed: it reaches the cache
   callback without entering the instruction counts. *)
let exec_slot ?(squashed = false) st pos =
  if st.asm.machine.Machine.delay_slots then begin
    if pos >= Array.length st.func.code then error "delay slot off the end";
    let slot = st.func.code.(pos) in
    if Rtl.is_transfer slot then error "transfer in a delay slot";
    if squashed then
      st.on_fetch ~addr:st.func.addrs.(pos) ~size:st.func.sizes.(pos)
    else begin
      count st slot pos;
      exec_simple st slot
    end
  end

let after_transfer st = if st.asm.machine.Machine.delay_slots then 2 else 1

let goto_label st l =
  match Asm.find_label st.func l with
  | pos ->
    if pos >= Array.length st.func.code then
      error "label %s points past the end of %s" (Label.to_string l)
        st.func.aname;
    st.pos <- pos
  | exception Not_found ->
    error "unknown label %s in %s" (Label.to_string l) st.func.aname

(* Where a taken transfer at [pos] resumes: its recorded override (slot
   filled from the target) or the label itself. *)
let transfer_target st pos l =
  let ov = st.func.Asm.target_override.(pos) in
  if ov >= 0 then st.pos <- ov else goto_label st l

let slot_annulled st pos =
  st.asm.machine.Machine.delay_slots
  && pos + 1 < Array.length st.func.Asm.annulled
  && st.func.Asm.annulled.(pos + 1)

let run_reference ?(max_steps = 400_000_000) ?(input = "")
    ?(on_fetch = fun ~addr:_ ~size:_ -> ()) ?(log = Telemetry.Log.null) ?budget
    (asm : Asm.t) (prog : Flow.Prog.t) =
  let max_steps = effective_steps budget max_steps in
  let image = Image.build prog in
  let main =
    match Asm.find_func asm "main" with
    | Some f -> f
    | None -> error "no main function"
  in
  let counts =
    {
      total = 0;
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
      asm;
      image;
      phys = Array.make Conv.num_regs 0;
      vregs = Hashtbl.create 64;
      cc = 0;
      func = main;
      pos = 0;
      stack = [];
      input;
      input_pos = 0;
      output = Buffer.create 1024;
      counts;
      on_fetch;
      steps_left = max_steps;
      log;
      log_on = Telemetry.Log.enabled log;
      budget = Option.value budget ~default:Telemetry.Budget.unlimited;
      budget_on = Option.is_some budget;
    }
  in
  set_reg st Conv.sp (Image.size image);
  set_reg st Conv.fp (Image.size image);
  let timed_out = ref false in
  let exit_code =
    try
      let rec loop () =
        if st.pos >= Array.length st.func.code then
          error "fell off the end of %s" st.func.aname;
        let pos = st.pos in
        let instr = st.func.code.(pos) in
        count st instr pos;
        (match instr with
        | Rtl.Branch (cond, l) ->
          let taken = eval_cc cond st.cc in
          let squashed = (not taken) && slot_annulled st pos in
          exec_slot ~squashed st (pos + 1);
          if taken then transfer_target st pos l
          else st.pos <- pos + after_transfer st
        | Rtl.Jump l ->
          exec_slot st (pos + 1);
          transfer_target st pos l
        | Rtl.Ijump (r, table) ->
          let idx = get_reg st r in
          exec_slot st (pos + 1);
          if idx < 0 || idx >= Array.length table then
            error "jump-table index %d out of bounds" idx;
          goto_label st table.(idx)
        | Rtl.Call (name, nargs) ->
          exec_slot st (pos + 1);
          if builtin_call st name nargs then
            st.pos <- pos + after_transfer st
          else begin
            match Asm.find_func st.asm name with
            | Some callee ->
              st.stack <- (st.func, pos + after_transfer st, st.vregs) :: st.stack;
              st.vregs <- Hashtbl.create 16;
              st.func <- callee;
              st.pos <- 0
            | None -> error "call to undefined function %s" name
          end
        | Rtl.Ret -> (
          exec_slot st (pos + 1);
          match st.stack with
          | (f, p, vregs) :: rest ->
            st.stack <- rest;
            st.func <- f;
            st.vregs <- vregs;
            st.pos <- p
          | [] -> raise (Exit_program (get_reg st Conv.rv)))
        | Rtl.Move _ | Rtl.Lea _ | Rtl.Binop _ | Rtl.Unop _ | Rtl.Cmp _
        | Rtl.Enter _ | Rtl.Leave | Rtl.Nop ->
          exec_simple st instr;
          st.pos <- pos + 1);
        loop ()
      in
      loop ()
    with
    | Exit_program code -> code
    | Out_of_steps ->
      timed_out := true;
      124
    | Image.Fault msg -> raise (Runtime_error msg)
  in
  {
    output = Buffer.contents st.output;
    exit_code;
    counts;
    timed_out = !timed_out;
  }

(* --- the decode stage ------------------------------------------------

   [run_reference] above pays per step for work whose answer never
   changes: label lookups through [Label.Map], symbol resolution through
   the image's table, virtual registers through a [Hashtbl], and the
   builtin-vs-defined decision on every call.  Decoding flattens each
   [Asm.afunc] once — transfer targets become instruction indices
   (delay-slot overrides folded in), symbols become addresses, calls
   become a function index or a builtin tag, and virtual registers
   become slots of a dense per-frame array — and {!Engine} compiles the
   result.  Runtime faults the reference loop raises lazily (unknown
   label taken, unknown symbol dereferenced, undefined function called)
   survive as negative targets into a per-function fault-message table,
   raised only if execution actually reaches them, so the engine and
   the reference loop are observationally identical; the test suite
   runs both over the whole benchmark matrix to hold them to that. *)

module Decoded = struct
  type dreg = P of int | V of int | CC

  type daddr =
    | DBased of dreg * int
    | DIndexed of dreg * dreg * int * int
    | DAbs of int  (** symbol resolved at decode time *)
    | DAbsBad of string  (** unknown symbol; faults when dereferenced *)

  type dopnd = DReg of dreg | DImm of int | DMem of Rtl.width * daddr
  type dloc = DLreg of dreg | DLmem of Rtl.width * daddr
  type builtin = Getchar | Putchar | Exit

  (* Transfer targets [>= 0] are instruction indices; [< 0] index the
     function's fault table as [-t - 1]. *)
  type dinstr =
    | DMove of dloc * dopnd
    | DLea of dreg * daddr
    | DBinop of Rtl.binop * dloc * dopnd * dopnd
    | DUnop of Rtl.unop * dloc * dopnd
    | DCmp of dopnd * dopnd
    | DEnter of int
    | DLeave
    | DNop
    | DBranch of Rtl.cond * int
    | DJump of int
    | DIjump of dreg * int array
    | DCallF of int  (** index into [dfuncs] *)
    | DCallB of builtin
    | DCallU of string  (** undefined function; faults when executed *)
    | DRet

  type dfunc = {
    dname : string;
    dcode : dinstr array;
    rw : int array;  (** bit 0: reads memory, bit 1: writes memory *)
    daddrs : int array;
    dsizes : int array;
    dannulled : bool array;
    faults : string array;
    nvirt : int;  (** dense frame size: 1 + highest virtual register *)
  }

  type t = {
    delay_slots : bool;
    dfuncs : dfunc array;
    findex : (string, int) Hashtbl.t;
  }

  let is_transfer = function
    | DBranch _ | DJump _ | DIjump _ | DCallF _ | DCallB _ | DCallU _ | DRet ->
      true
    | DMove _ | DLea _ | DBinop _ | DUnop _ | DCmp _ | DEnter _ | DLeave
    | DNop ->
      false

  let decode_func symbol findex (f : Asm.afunc) =
    let faults = ref [] in
    let nfaults = ref 0 in
    let fault msg =
      incr nfaults;
      faults := msg :: !faults;
      - !nfaults
    in
    (* Virtual-register numbering is program-global and sparse; remap
       to dense per-function slots so a frame is a small array. *)
    let vslots = Hashtbl.create 16 in
    let dreg = function
      | Reg.Phys i -> P i
      | Reg.Virt i ->
        V
          (match Hashtbl.find_opt vslots i with
          | Some s -> s
          | None ->
            let s = Hashtbl.length vslots in
            Hashtbl.add vslots i s;
            s)
      | Reg.Cc -> CC
    in
    let daddr = function
      | Rtl.Based (r, d) -> DBased (dreg r, d)
      | Rtl.Indexed (b, i, s, d) -> DIndexed (dreg b, dreg i, s, d)
      | Rtl.Abs (sym, off) -> (
        match symbol sym with
        | Some a -> DAbs (a + off)
        | None -> DAbsBad (Printf.sprintf "unknown symbol %s" sym))
    in
    let dopnd = function
      | Rtl.Reg r -> DReg (dreg r)
      | Rtl.Imm n -> DImm n
      | Rtl.Mem (w, a) -> DMem (w, daddr a)
    in
    let dloc = function
      | Rtl.Lreg r -> DLreg (dreg r)
      | Rtl.Lmem (w, a) -> DLmem (w, daddr a)
    in
    (* [goto_label]'s two lazy faults, preformatted. *)
    let target l =
      match Asm.find_label f l with
      | pos ->
        if pos >= Array.length f.code then
          fault
            (Printf.sprintf "label %s points past the end of %s"
               (Label.to_string l) f.aname)
        else pos
      | exception Not_found ->
        fault
          (Printf.sprintf "unknown label %s in %s" (Label.to_string l) f.aname)
    in
    (* [transfer_target]: a recorded override (slot filled from the
       target) bypasses the label. *)
    let ttarget k l =
      let ov = f.target_override.(k) in
      if ov >= 0 then ov else target l
    in
    let dcode =
      Array.mapi
        (fun k instr ->
          match instr with
          | Rtl.Move (loc, src) -> DMove (dloc loc, dopnd src)
          | Rtl.Lea (r, a) -> DLea (dreg r, daddr a)
          | Rtl.Binop (op, loc, a, b) -> DBinop (op, dloc loc, dopnd a, dopnd b)
          | Rtl.Unop (op, loc, a) -> DUnop (op, dloc loc, dopnd a)
          | Rtl.Cmp (a, b) -> DCmp (dopnd a, dopnd b)
          | Rtl.Enter n -> DEnter n
          | Rtl.Leave -> DLeave
          | Rtl.Nop -> DNop
          | Rtl.Branch (cond, l) -> DBranch (cond, ttarget k l)
          | Rtl.Jump l -> DJump (ttarget k l)
          | Rtl.Ijump (r, table) -> DIjump (dreg r, Array.map target table)
          | Rtl.Call (name, _) -> (
            (* Builtins shadow defined functions, as [builtin_call]
               being consulted first does in the reference loop. *)
            match name with
            | "getchar" -> DCallB Getchar
            | "putchar" -> DCallB Putchar
            | "exit" -> DCallB Exit
            | _ -> (
              match Hashtbl.find_opt findex name with
              | Some i -> DCallF i
              | None ->
                DCallU (Printf.sprintf "call to undefined function %s" name)))
          | Rtl.Ret -> DRet)
        f.code
    in
    {
      dname = f.aname;
      dcode;
      rw =
        Array.map
          (fun i ->
            (if Rtl.reads_mem i then 1 else 0)
            lor if Rtl.writes_mem i then 2 else 0)
          f.code;
      daddrs = f.addrs;
      dsizes = f.sizes;
      dannulled = f.annulled;
      faults = Array.of_list (List.rev !faults);
      nvirt = Hashtbl.length vslots;
    }

  let decode_with symbol (asm : Asm.t) =
    let funcs = Array.of_list asm.Asm.funcs in
    let findex = Hashtbl.create 16 in
    (* First binding wins, like [Asm.find_func]'s [List.find_opt]. *)
    Array.iteri
      (fun i (f : Asm.afunc) ->
        if not (Hashtbl.mem findex f.aname) then Hashtbl.add findex f.aname i)
      funcs;
    {
      delay_slots = asm.Asm.machine.Machine.delay_slots;
      dfuncs = Array.map (decode_func symbol findex) funcs;
      findex;
    }

  let decode (asm : Asm.t) (prog : Flow.Prog.t) =
    let image = Image.build_scratch prog in
    decode_with
      (fun sym ->
        match Image.symbol image sym with
        | a -> Some a
        | exception Not_found -> None)
      asm
end

(* Re-running the same assembled program (benchmark reps, differential
   checks, repeated engine runs of one measurement) re-decodes
   identically: [Image.build] lays data out as a pure function of the
   program, so symbol addresses cannot change between runs.  A small
   LRU keyed by physical identity replaces the old one-slot cache — the
   daemon's resident workers and the differential tests interleave a
   handful of programs, which a single slot thrashed on.  One table per
   process: parallel sweeps run in worker processes and share nothing.
   The hit/miss tallies surface through [decode_cache_counters], never
   through a sweep's log (whose counters must stay independent of how
   tasks were scheduled over workers). *)
let decode_cache_capacity = 8

type cache_entry = {
  ckey_asm : Asm.t;
  ckey_prog : Flow.Prog.t;
  cval : Decoded.t;
}

type cache = {
  mutable entries : cache_entry list;  (** most recent first *)
  mutable chits : int;
  mutable cmisses : int;
}

let decode_cache = { entries = []; chits = 0; cmisses = 0 }

let decode_cached ~symbol (asm : Asm.t) (prog : Flow.Prog.t) =
  let rec find acc = function
    | [] -> None
    | e :: rest ->
      if e.ckey_asm == asm && e.ckey_prog == prog then
        Some (e, List.rev_append acc rest)
      else find (e :: acc) rest
  in
  match find [] decode_cache.entries with
  | Some (e, rest) ->
    decode_cache.chits <- decode_cache.chits + 1;
    decode_cache.entries <- e :: rest;
    e.cval
  | None ->
    decode_cache.cmisses <- decode_cache.cmisses + 1;
    let d = Decoded.decode_with symbol asm in
    let entry = { ckey_asm = asm; ckey_prog = prog; cval = d } in
    let kept =
      List.filteri (fun i _ -> i < decode_cache_capacity - 1) decode_cache.entries
    in
    decode_cache.entries <- entry :: kept;
    d

let decode_cache_counters () = (decode_cache.chits, decode_cache.cmisses)

let publish_cache_metrics metrics =
  let hits, misses = decode_cache_counters () in
  Telemetry.Metrics.add metrics "sim.decode_cache.hits" hits;
  Telemetry.Metrics.add metrics "sim.decode_cache.misses" misses
