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

(* One [Sim_progress] heartbeat per this many executed instructions. *)
let progress_interval = 5_000_000

(* How often (in executed instructions) an attached budget's deadline is
   polled.  Cooperative cancellation latency is this many steps; the poll
   is one land (plus a clock read when a deadline is set). *)
let budget_interval_mask = 2047

(* --- the decode stage ------------------------------------------------

   Interpreting [Asm.afunc] directly pays per step for work whose
   answer never changes: label lookups through [Label.Map], symbol
   resolution through the image's table, virtual registers through a
   [Hashtbl], and the builtin-vs-defined decision on every call.
   Decoding flattens each function once — transfer targets become
   instruction indices (delay-slot overrides folded in), symbols become
   addresses, calls become a function index or a builtin tag, and
   virtual registers become slots of a dense per-frame array — and
   {!Engine} compiles the result.  Runtime faults that only fire when
   reached (unknown label taken, unknown symbol dereferenced, undefined
   function called) survive as negative targets into a per-function
   fault-message table, raised only if execution actually reaches them.
   The test suite holds the engine to a re-resolving reference loop
   ([test/interp_oracle.ml]) over the whole benchmark matrix. *)

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
    (* A label's two lazy faults, preformatted. *)
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
    (* A taken transfer's recorded override (slot filled from the
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
            (* Builtins shadow defined functions. *)
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
end

(* Re-running the same assembled program (benchmark reps, differential
   checks, repeated engine runs of one measurement) re-decodes
   identically: [Image.build] lays data out as a pure function of the
   program, so symbol addresses cannot change between runs.  A small
   LRU keyed by physical identity replaces the old one-slot cache — the
   resident pool workers and the differential tests interleave a
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
