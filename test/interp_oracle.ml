(* The straightforward interpretation loop that [Sim.Engine] replaced: it
   re-resolves labels, symbols, virtual registers and call targets on
   every step.  Kept as the semantic oracle for [Sim.Engine.run], which
   must produce the same output, exit code, timeout verdict, per-class
   counts and per-instruction fetch stream (exact prefixes on faults and
   timeouts).  It has no log or budget hooks: the equivalence tests do
   not compare heartbeats or cancellation. *)

open Ir
open Sim

(* Memory with words moved a byte at a time, so the engine's word
   accesses are compared against an independent path. *)
module Image = Image_oracle

let error fmt = Format.kasprintf (fun s -> raise (Interp.Runtime_error s)) fmt

exception Exit_program of int

(* Step-budget exhaustion is a distinct outcome, not a runtime fault. *)
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
  counts : Interp.counts;
  on_fetch : addr:int -> size:int -> unit;
  mutable steps_left : int;
}

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
  st.steps_left <- st.steps_left - 1;
  if st.steps_left <= 0 then raise Out_of_steps

let builtin_call st name =
  let arg i = st.phys.(match Conv.arg_reg i with Reg.Phys k -> k | _ -> 0) in
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

let run ?(max_steps = 400_000_000) ?(input = "")
    ?(on_fetch = fun ~addr:_ ~size:_ -> ()) (asm : Asm.t) (prog : Flow.Prog.t)
    =
  let image = Image.build prog in
  let main =
    match Asm.find_func asm "main" with
    | Some f -> f
    | None -> error "no main function"
  in
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
        | Rtl.Call (name, _) ->
          exec_slot st (pos + 1);
          if builtin_call st name then st.pos <- pos + after_transfer st
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
    | Image.Fault msg -> raise (Interp.Runtime_error msg)
  in
  {
    Interp.output = Buffer.contents st.output;
    exit_code;
    counts;
    timed_out = !timed_out;
  }
